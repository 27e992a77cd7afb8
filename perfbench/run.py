"""Build and run the end-to-end benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds perfbench/main.exe with dune (shared dune cache off, so nothing is
written outside the checkout), then runs it with the same arguments.  The
build log goes to stderr; the benchmark's last stdout line is its JSON
result.  Exits nonzero, without a result, when the build or a check fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def run(cmd, timeout, **kwargs):
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        return subprocess.run(cmd, cwd=ROOT, env=env, timeout=timeout, **kwargs).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print(f"perfbench: {cmd[0]} timed out after {timeout} s", file=sys.stderr)
        return 124
    except OSError as e:
        print(f"perfbench: cannot run {cmd[0]}: {e}", file=sys.stderr)
        return 127


def main():
    build = ["dune", "build", "--root", ".", "--display=quiet", "./perfbench/main.exe"]
    code = run(build, BUILD_TIMEOUT_S, stdout=sys.stderr)
    if code != 0:
        print(f"perfbench: build failed (exit {code})", file=sys.stderr)
        return code
    return run([EXE] + sys.argv[1:], RUN_TIMEOUT_S)


if __name__ == "__main__":
    sys.exit(main())
