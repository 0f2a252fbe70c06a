"""The README's Library example runs and does what its comments say."""

import contextlib
import io
import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_example():
    code = library_block()
    namespace = {}
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(code, str(README), "exec"), namespace)

    # print(result.temperature, result.status)  # 1758.048… WitnessStatus.CROSSED
    assert "# 1758.048… WitnessStatus.CROSSED" in code
    temperature, status = printed.getvalue().splitlines()[0].split()
    assert float(temperature) == pytest.approx(1758.048, abs=5e-4)
    assert status == "WitnessStatus.CROSSED"

    curve = namespace["curve"]
    for column in (curve.temperatures, curve.witness, curve.mean_energy):
        assert not column.flags.writeable

    # aligned.energies, aligned.spin_vectors, aligned.orbital_vectors
    assert "# [-1350.], [[0, 0, 0.5]], [[0, 0, -3]]" in code
    aligned = namespace["aligned"]
    assert aligned.energies.tolist() == [-1350.0]
    assert aligned.spin_vectors.tolist() == [[0.0, 0.0, 0.5]]
    assert aligned.orbital_vectors.tolist() == [[0.0, 0.0, -3.0]]
