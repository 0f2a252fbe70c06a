"""Golden outputs: the CLI's stdout and written files hashed byte for byte.

The curve digests were recorded before the curve evaluator became chunked
and streamed; the ``te`` and ``ions`` digests before the dense route shared
one cached diagonalisation; the ``custom ... te`` sweep digest before the
level table was built straight from the doubled quantum numbers.  The
``verify`` digests were recorded again when the dense route moved to one
zeta-free S.L solve per shell: that moved three printed residuals
(``spectrum-equivalence``, ``trace-equivalence`` and
``product-energy-identity``), each well within its threshold, and no other
byte; and again when product-state energies became weighted sums over the
diagonals of S.L, which moved ``product-energy-identity`` alone.  Any change to a printed digit, to the row order or to the line
endings of these invocations fails here; a change that is meant to alter
them must record new digests and say why.
"""

import hashlib

import pytest

from sowitness.cli import main

WITNESS = {
    ("Ce", "level", 600): "04f7f6b3e8150dd52255e304b9081fbb39dddcfbe3442b0417a225ff7657f213",
    ("Ce", "level", 3000): "46a5871c88baeca0d8f84005eff4c3631bd4d206cb2a1a65c493a88f8f80b829",
    ("Pr", "level", 600): "d216000eadabea98ed6b8e99acb62f4e91bcb1b0fe744f4c60d069560ffc7e75",
    ("Pr", "level", 3000): "b164cb2b346718417264f9e0996874fc30161813df541bf8e6d6f999366c8780",
    ("Nd", "level", 600): "2d261377907953918d7c16ce160e71b16f3f16eb6b16b58a1d046583127c2200",
    ("Nd", "level", 3000): "8c1f36f06519c2211bade7fbebe3ac7ec3ca743c0355eb41b1b6809c35a63a23",
    ("Pm", "level", 600): "ebd567bbac9203fad0fc2393a3bfb4a3e7c14147ca801e15fd96ebe2c2d91293",
    ("Pm", "level", 3000): "93f470098dc9bd7c5e847286b5b2f84f98aa1d7babbcd321b8eff3f08e2bb125",
    ("Sm", "level", 600): "4b90290c2417ada385454a3c5e77886579bec4b8e2323612927d89fcfec90139",
    ("Sm", "level", 3000): "d3a494fb49147a675ca1c298276a91d8601b32ca1a209e0ac3271ebe82340fd2",
    ("Eu", "level", 600): "177040bc3b352d2847f864e928dafc470df782f43f5ba9d5310e7c193d4f738e",
    ("Eu", "level", 3000): "e4b903875b518095c450ba4be5a68c06f7d079ef9aee76f2132caf73ddfcfd9d",
    ("Ce", "multiplet", 600): "6d184b062e12475d04b0c9241efa308c8e0ff0cc467b9c4b9235b99d384b2d0d",
    ("Ce", "multiplet", 3000): "173e9cb53c7212939f7e5a942efa185dc84cbf3dafc97d4dffb9289eeda3499e",
    ("Pr", "multiplet", 600): "4a64fa08ce4179b5d77a1b2e23a0118e59220af5f25b6c7dd7da47141679132a",
    ("Pr", "multiplet", 3000): "a9471a84d8b44fc795bfc0fc87588c1b02b8e74f2dadd700d12b7109e115a23d",
    ("Nd", "multiplet", 600): "cd137c722e15728f2cc51389ee19d14425ebe323b2c138f9a9154ba10950d43a",
    ("Nd", "multiplet", 3000): "892f17bfb3503035d0077f3018ea3215f826493ee7d38c3089142371e82c7525",
    ("Pm", "multiplet", 600): "5f608b0394c0bfea053162ec35bc9c13399062e88b2e70c9f64a848ed1822f3f",
    ("Pm", "multiplet", 3000): "655719b384a92b696b895b4794c1c6b3810b194f11614d89ce4d75ba59932898",
    ("Sm", "multiplet", 600): "b12936a05e24105e3d87c3ddc98764f6a5cbb9e6fa95cfc9a323ee726e53c030",
    ("Sm", "multiplet", 3000): "3c445fa955e0b23294f67c051c74d1641479e33caaec9cdfb3d26e07f8480c79",
    ("Eu", "multiplet", 600): "9125b9e563d4d8984ce1fcc7d9c941fe9f1a14c71512cbfbe5a84656390dcb96",
    ("Eu", "multiplet", 3000): "b545e3fcc3fff426c993e12af0abc6d74e99bb98a9b92fb6de6c4245a3f66131",
}

FIGURE1 = {
    ("level", "figure1_Ce.csv"): "04f7f6b3e8150dd52255e304b9081fbb39dddcfbe3442b0417a225ff7657f213",
    ("level", "figure1_Eu.csv"): "177040bc3b352d2847f864e928dafc470df782f43f5ba9d5310e7c193d4f738e",
    ("level", "figure1_Nd.csv"): "2d261377907953918d7c16ce160e71b16f3f16eb6b16b58a1d046583127c2200",
    ("level", "figure1_Pm.csv"): "ebd567bbac9203fad0fc2393a3bfb4a3e7c14147ca801e15fd96ebe2c2d91293",
    ("level", "figure1_Pr.csv"): "d216000eadabea98ed6b8e99acb62f4e91bcb1b0fe744f4c60d069560ffc7e75",
    ("level", "figure1_Sm.csv"): "4b90290c2417ada385454a3c5e77886579bec4b8e2323612927d89fcfec90139",
    ("level", "plot_figure1.py"): "094fbb57d61761c9431480c28eab5c85268f68c852a84044f7c25218e628dd75",
    ("multiplet", "figure1_Ce.csv"): "6d184b062e12475d04b0c9241efa308c8e0ff0cc467b9c4b9235b99d384b2d0d",
    ("multiplet", "figure1_Eu.csv"): "9125b9e563d4d8984ce1fcc7d9c941fe9f1a14c71512cbfbe5a84656390dcb96",
    ("multiplet", "figure1_Nd.csv"): "cd137c722e15728f2cc51389ee19d14425ebe323b2c138f9a9154ba10950d43a",
    ("multiplet", "figure1_Pm.csv"): "5f608b0394c0bfea053162ec35bc9c13399062e88b2e70c9f64a848ed1822f3f",
    ("multiplet", "figure1_Pr.csv"): "4a64fa08ce4179b5d77a1b2e23a0118e59220af5f25b6c7dd7da47141679132a",
    ("multiplet", "figure1_Sm.csv"): "b12936a05e24105e3d87c3ddc98764f6a5cbb9e6fa95cfc9a323ee726e53c030",
    ("multiplet", "plot_figure1.py"): "094fbb57d61761c9431480c28eab5c85268f68c852a84044f7c25218e628dd75",
}

STDOUT = {
    ("verify",): "0635c5055deae912d70c1cce5416267c5f8b2ebcc457ca11fba11896bd5558ce",
    ("verify", "--seed", "3"):
        "e6be0dd208a8fa7107ce821f1b24ad72edf74019124c7d6c03b4442e7940d9b6",
    ("verify", "--seed", "7", "--samples", "300"):
        "2e07cf67406ec2713b3ee389a20c602a4b65338de8649ee2b541f7c610a57d48",
    ("te", "--ion", "all", "--convention", "level"):
        "9b2e34274271812118c337f49980fbea5eec851b0dc7c5f2e6ebf353a94a45d2",
    ("te", "--ion", "all", "--convention", "multiplet"):
        "826e8bc0b1cb91a85b7c3e99db038aaf4b6ac0eec6d6194e5e36c362d019150a",
    ("ions",): "ba7b94120d95206ab145d07a6e94b0886f5d5a38defa433f2fa07d31dc0201be",
    ("ions", "--format", "json"):
        "ab91ed5a38b20511a99350a2303108b78da63cccc182cade51f4d7dfbf1354ba",
}

# ``custom ... te --tolerance 1e-3`` over 2s x 2l x zeta (K) x convention, then
# one shell with 2s = 10**10; the digest is of the stdouts joined in this order.
CUSTOM_TE_SWEEP = "84475e7364be2d47ba502f80a7e54ca9554946c559af84d71f3bf7824eb87f0a"


def custom_te_sweep():
    for two_s in (1, 2, 3, 5, 7, 10):
        for two_l in (2, 4, 6, 9, 12):
            for zeta in ("137", "0.37", "-483"):
                for convention in ("level", "multiplet"):
                    yield ["custom", "--two-s", str(two_s), "--two-l", str(two_l),
                           "--zeta", zeta, "te", "--convention", convention,
                           "--tolerance", "1e-3"]
    yield ["custom", "--two-s", "10000000000", "--two-l", "2", "--zeta", "1",
           "te", "--tolerance", "1e-3"]


def sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("ion,convention,steps", sorted(WITNESS))
def test_witness_stdout(capsys, ion, convention, steps):
    assert main(["witness", "--ion", ion, "--convention", convention,
                 "--steps", str(steps)]) == 0
    assert sha256(capsys.readouterr().out.encode()) == WITNESS[ion, convention, steps]


@pytest.mark.parametrize("convention", ["level", "multiplet"])
def test_figure1_files(capsys, tmp_path, convention):
    assert main(["figure1", "--outdir", str(tmp_path), "--convention", convention]) == 0
    capsys.readouterr()
    files = {name: digest for (conv, name), digest in FIGURE1.items() if conv == convention}
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
    for name, digest in files.items():
        assert sha256((tmp_path / name).read_bytes()) == digest, name


@pytest.mark.parametrize("argv", sorted(STDOUT), ids=" ".join)
def test_command_stdout(capsys, argv):
    assert main(list(argv)) == 0
    assert sha256(capsys.readouterr().out.encode()) == STDOUT[argv]


def test_custom_te_sweep(capsys):
    stdouts = []
    for argv in custom_te_sweep():
        assert main(argv) == 0, argv
        stdouts.append(capsys.readouterr().out)
    assert stdouts[-1] == "symbol,convention,te_K,reason\ncustom,multiplet,2.23887e+08,crossed\n"
    assert sha256("".join(stdouts).encode()) == CUSTOM_TE_SWEEP
