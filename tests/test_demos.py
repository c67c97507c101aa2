"""Every demo script runs to completion; several assert on the counts they
print.  The README's python examples run too, and give what their comments
promise."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_six_demos_are_collected():
    assert len(DEMOS) == 6


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_readme_examples_keep_their_promises():
    # the fenced python blocks run in order in one namespace; a line
    # `expr  # literal` promises that expr evaluates to that literal
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"```python\n(.*?)```", readme, re.S)
    assert len(blocks) == 3
    namespace, promises = {}, {}
    for block in blocks:
        exec(block, namespace)
        for line in block.splitlines():
            expr, _, comment = line.partition("#")
            try:
                promises[expr.strip()] = ast.literal_eval(comment.strip())
            except (SyntaxError, ValueError):
                continue
    assert promises == {
        "verdict.period": 6,
        "verdict.exponents_dict()": {0: 1, 1: 0, 2: 1, 3: 1, 4: 1, 5: 0},
        "ident.count_series(200) == ident.product_series(200)": True,
        "ident.first_mismatch(200)": None,
        "refuted.first_mismatch(refuted.counterexample_n)": (35, 4728, 4727),
    }
    for expr, value in promises.items():
        assert eval(expr, namespace) == value, expr
