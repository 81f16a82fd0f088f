"""One ``surfspec run`` in a fresh interpreter, as a CLI user would make it.

    python3 perfbench/worker.py WORKLOAD CONFIG REPORT RESULT [--trace] [--setup-only]

Times set-up (``import surfspec.cli``, ``load_config``, ``validate_config``,
``build_objects``) and the run (``cli.run`` plus ``write_report``), takes
the process's CPU time and peak memory, then applies the correctness gate
outside the timed region.  Everything is written to RESULT as JSON.  With
``--trace`` the program's public functions are wrapped (see ``tracer``) and
the spans go into RESULT too.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))


def main(argv) -> None:
    workload, config_path, report_path, result_path = argv[:4]
    traced, setup_only = "--trace" in argv, "--setup-only" in argv

    import surfspec.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"surfspec imported from {cli.__file__}, not from {SRC}")
    tracer = None
    if traced:
        import surfspec
        from tracer import Tracer, install

        tracer = Tracer(run=Path(result_path).stem)
        install(tracer, surfspec)

    cfg = cli.validate_config(cli.load_config(config_path))
    cli.build_objects(cfg)
    t_setup = time.perf_counter() - T0
    result = {"setup_s": t_setup}
    if setup_only:
        Path(result_path).write_text(json.dumps(result))
        return

    error = None
    t1 = time.perf_counter()
    try:
        report, code = cli.run(cfg)
        cli.write_report(report, report_path)
    except Exception as exc:  # a raising run is a failed run, recorded below
        error, code = f"{type(exc).__name__}: {exc}", None
        if isinstance(exc, getattr(cli, "_INPUT_ERRORS", ())):
            code = 2  # what `surfspec run` exits with for this exception
    run_s = time.perf_counter() - t1
    usage = resource.getrusage(resource.RUSAGE_SELF)

    import gate
    from surfspec.verify import recompute_pass

    reference = gate.load_reference(workload)
    if error is None:
        problems = gate.check_report(report, reference, recompute_pass)
    elif error in gate.expected_errors(reference):
        problems = []  # the parent commit raised the same exception
    else:
        problems = [f"raised {error}"]
    result.update(
        run_s=run_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
        exit_code=code,
        error=error,
        problems=problems,
        spans=tracer.to_dicts() if tracer else None,
    )
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
