"""Guards for the documentation and the public names: the README's CLI
walkthrough runs as written and prints the scores it documents, its library
example runs as written, and every exported name resolves."""

import contextlib
import importlib
import io
import re
import shlex
from pathlib import Path

import pytest

from rsddl.cli import main
from rsddl.inference import predict_batch
from util import two_class_mixture_data

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = [
    f"rsddl.{name}" for name in ("cli", "dataio", "greedy", "inference", "joint", "metrics", "numerics", "sparse")
]


def walkthrough_steps():
    """The README's walkthrough as ``("python", source)`` and ``("rsddl",
    argv)`` steps, in order."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## CLI walkthrough", 1)[1].split("```bash\n", 1)[1].split("\n```", 1)[0]
    lines = iter(block.split("\n"))
    steps = []
    for line in lines:
        if line.startswith("python - <<'EOF'"):
            steps.append(("python", "\n".join(iter(lambda: next(lines), "EOF"))))
        elif line.startswith("rsddl "):
            while line.endswith("\\"):
                line = line[:-1] + next(lines)
            steps.append(("rsddl", shlex.split(line)[1:]))
        else:
            assert not line.strip() or line.startswith("#"), f"unrecognized walkthrough line {line!r}"
    return steps


def test_readme_walkthrough_prints_documented_scores(tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    documented = re.search(r"the demo scores OA (\d\.\d{4}), kappa (\d\.\d{4})", text)
    assert documented is not None
    monkeypatch.chdir(tmp_path)
    steps = walkthrough_steps()
    assert [kind for kind, _ in steps] == ["python", "rsddl", "python", "rsddl", "rsddl", "rsddl", "rsddl"]
    out = io.StringIO()
    for kind, step in steps:
        if kind == "python":
            exec(compile(step, "README.md", "exec"), {"__name__": "__main__"})
            continue
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            assert main(step) == 0, step
    report = out.getvalue().split("\n")
    assert report[0] == f"OA {documented.group(1)}" == "OA 0.9583"
    assert report[2] == f"Kappa {documented.group(2)}" == "Kappa 0.9375"


def test_readme_library_use_runs_as_written():
    text = README.read_text(encoding="utf-8")
    block = text.split("## Library use", 1)[1].split("```python\n", 1)[1].split("\n```", 1)[0]
    train, x_test, _ = two_class_mixture_data(dim=12, n_train=20, n_test=4)
    names = {"features": train.x, "labels": train.labels, "x_new": x_test[:, [0]], "x_batch": x_test}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), names)
    assert names["codes"].shape == (4, 1)
    assert len(names["preds"]) == x_test.shape[1]
    assert out.getvalue() == f"{predict_batch(names['model'], x_test[:, [0]])[0].label}\n"


@pytest.mark.parametrize("module", ["rsddl"] + MODULES)
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    assert mod.__all__
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names missing attributes: {missing}"
