"""Start-up cost: one BLAS thread per process, no process pool until one runs, and no
log decoder until a log is parsed.

Each check runs in a fresh interpreter, since the test process has long since
imported numpy and may have loaded the pool modules itself.
"""

import os
import subprocess
import sys
from pathlib import Path

import hybandit
from hybandit.cli import main

SRC = str(Path(hybandit.__file__).resolve().parent.parent)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def fresh_python(args, cwd=None, **env_vars):
    """Run ``python ARGS`` with the package on the path and none of the thread variables set."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    env["PYTHONPATH"] = SRC
    env.update(env_vars)
    done = subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def thread_vars_after_import(**env_vars):
    code = "import os, hybandit; print([os.environ.get(k) for k in %r])" % (THREAD_VARS,)
    return fresh_python(["-c", code], **env_vars).strip()


def test_import_caps_blas_at_one_thread():
    assert thread_vars_after_import() == "['1', '1', '1']"


def test_user_thread_setting_left_alone():
    assert thread_vars_after_import(OMP_NUM_THREADS="3") == "[None, '3', None]"


def test_cli_import_loads_no_pool_or_orjson_modules():
    code = (
        "import sys, hybandit.cli; print([m for m in "
        "('concurrent.futures.process', 'multiprocessing', 'orjson') if m in sys.modules])"
    )
    assert fresh_python(["-c", code]).strip() == "[]"


def test_pool_run_in_fresh_process_matches_serial_in_process(tmp_path):
    argv = ["run", "--setting", "1", "--scale", "0.002", "--seed", "7"]
    fresh_python(
        ["-m", "hybandit.cli", *argv, "--threads", "2", "--out-dir", str(tmp_path / "pool")]
    )
    assert main([*argv, "--threads", "1", "--out-dir", str(tmp_path / "serial")]) == 0
    pool = (tmp_path / "pool" / "regret.csv").read_bytes()
    assert pool == (tmp_path / "serial" / "regret.csv").read_bytes()
