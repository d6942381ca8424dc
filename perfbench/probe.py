"""Fresh-interpreter probe: import the CLI, then run one command cold.

run.py starts it with the package sources on PYTHONPATH:

    python3 perfbench/probe.py '["design", "--cavity", "ssc"]'

It prints one JSON line: the ``time.perf_counter()`` reading once the import
finished (the parent subtracts its own reading taken before the spawn), the
cold command's wall time, its exit code and its captured output, and the
calibration times this interpreter measured after the command.
"""

import contextlib
import io
import json
import sys
import time

CALIBRATIONS = 5


def main() -> None:
    import stripcavity.cli as cli

    ready = time.perf_counter()
    argv = json.loads(sys.argv[1])
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    cold_s = time.perf_counter() - start

    from calibration import calibrate

    calibration = [calibrate() for _ in range(CALIBRATIONS)]
    print(json.dumps({"ready": ready, "cold_s": cold_s, "rc": rc, "calibration": calibration,
                      "stdout": out.getvalue(), "stderr": err.getvalue()}))


if __name__ == "__main__":
    main()
