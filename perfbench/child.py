"""Run one dyntf CLI command in a fresh process and report on it.

    python3 perfbench/child.py RESULT_JSON RUN_ID TRACE CLI ARGS...

Imports `dyntf.cli` (the moment it finishes ends set-up time), calls
`dyntf.cli.main(CLI ARGS)`, and writes RESULT_JSON with the exit code,
the import-done timestamp on the system-wide monotonic clock, this
process's own peak RSS and, when TRACE is 1, the spans.
"""

import json
import os
import resource
import sys
import time


def peak_rss_kb() -> tuple[int, str]:
    """Peak RSS of this process's own address space, and where it was read.

    VmHWM starts afresh at exec. ru_maxrss does not: exec carries the
    launcher's peak over, so it is only the fallback.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]), "VmHWM"
    except (OSError, ValueError, IndexError):
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, "ru_maxrss"


def main() -> int:
    result_path, run_id, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    cli_args = sys.argv[4:]
    import dyntf.cli
    t_import = time.monotonic()
    result = {"t_import": t_import, "dyntf": os.path.realpath(dyntf.cli.__file__),
              "code": 0, "spans": [], "missing": []}
    if trace:
        import spans
        recorder = spans.Recorder(run_id)
        result["missing"] = spans.install(recorder)
        root = recorder.open("cli.main")
        try:
            result["code"] = dyntf.cli.main(cli_args)
        finally:
            recorder.close(root)
        # file facts are read after the command, outside every span
        for span in recorder.spans:
            path = span["attrs"].get("path")
            if span["name"] == "tensor.load_coo":
                with open(path, "rb") as fh:
                    span["attrs"]["lines"] = sum(1 for _ in fh)
            elif span["name"] == "tensor.save_coo":
                span["attrs"]["bytes"] = os.path.getsize(path)
        result["spans"] = recorder.spans
    else:
        result["code"] = dyntf.cli.main(cli_args)
    result["maxrss_kb"], result["rss_source"] = peak_rss_kb()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
