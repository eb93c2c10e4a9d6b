"""One cold start, as a fresh process would pay it: import the system
and warm its lazy caches (the VMMC and retransmission programs; for
``firmware`` also the native shared objects, built with ``cc`` into the
empty cache directory named by ``ESP_NATIVE_CACHE``).

The process runs the calibration loop when it starts and again when
it is done, so its time can be scaled by the speed of the core it ran
on.

Usage: ``python3 perfbench/cold.py verify|firmware``.  Prints one JSON
line with the seconds spent importing, warming, building native code
and calibrating, and the calibration samples (ms)."""

import json
import os
import sys
import time


def main() -> None:
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    sys.path.insert(0, here)
    from harness import Calibrator

    calibrator = Calibrator(reps=6)
    calib_start = time.perf_counter()
    calibrator.gap()
    started = time.perf_counter()
    calib_s = started - calib_start
    workload = sys.argv[1]
    if workload == "verify":
        import verify_jobs  # noqa: F401  (imports the layers it drives)
    else:
        import firmware_jobs
    from repro.api import compile_source
    from repro.vmmc.firmware_esp import compile_vmmc_esp
    from repro.vmmc.retransmission import protocol_source, runtime_source
    imported = time.perf_counter()

    compile_vmmc_esp()
    compile_source(protocol_source(2, 3))
    compile_source(runtime_source(8, 0))
    cc_s = 0.0
    if workload == "firmware":
        from repro.runtime.machine import create_machine

        programs = firmware_jobs.native_programs()
        build = time.perf_counter()
        for program in programs.values():
            create_machine(program, engine="native")
        cc_s = time.perf_counter() - build
    done = time.perf_counter()
    calibrator.gap()
    calib_s += time.perf_counter() - done
    print(json.dumps({"import_s": imported - started,
                      "warm_s": done - imported, "cc_s": cc_s,
                      "calib_s": calib_s, "calib_ms": calibrator.samples}))


if __name__ == "__main__":
    main()
