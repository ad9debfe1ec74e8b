"""What importing the package loads: neither numpy nor the process-pool
machinery, and every engine decides with numpy unavailable."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_import_loads_neither_numpy_nor_the_process_pool():
    loaded = _run(
        "import sys, ltlfsat\n"
        "for name in ('numpy', 'concurrent.futures.process', 'multiprocessing'):\n"
        "    print(name in sys.modules)\n"
    )
    assert loaded == ["False", "False", "False"]


def test_every_engine_decides_without_numpy():
    # brute force never reports unsat: a miss within its bound is an abort
    verdicts = _run(
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "from ltlfsat import ResourceAbort, parse\n"
        "from ltlfsat.cdlsc import ENGINES, solve\n"
        "for engine in ENGINES:\n"
        "    try:\n"
        "        unsat = solve(parse('G a & F ! a'), engine).sat\n"
        "    except ResourceAbort as abort:\n"
        "        unsat = abort.kind\n"
        "    print(engine, solve(parse('a U (b & X ! a)'), engine).sat, unsat)\n"
    )
    assert verdicts == ["cdlsc", "True", "False", "naive", "True", "False",
                        "brute", "True", "trace_bound"]
