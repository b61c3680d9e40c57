"""The README's worked example runs and prints what its comments say."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_worked_example_runs():
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example, str(README), "exec"), {})
    functionals, chain, exposed, cortege = out.getvalue().splitlines()
    assert functionals.count("AffineFunctional(") == 1
    assert "coeffs=(Fraction(1, 1), Fraction(1, 1))" in functionals
    assert chain == "(FaceDescriptor(vertex_indices=(0, 1, 2, 3)), FaceDescriptor(vertex_indices=(0,)))"
    assert exposed == "False"
    assert cortege.startswith("Cortege(") and cortege.count("AffineFunctional(") == 2
