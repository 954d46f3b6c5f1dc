"""python tests/fresh_run.py CODE LINE ARGV...: run ``transdiv ARGV...`` in
this fresh process, pass its output through, and print on stderr its exit
code, wall time from before ``import transdiv.cli``, peak (ru_maxrss) and
minor faults.  Exits 1, naming each failure, on an exit code other than
CODE, a LINE ("stdout:TEXT" or "stderr:TEXT"; "" for none) missing from
its stream, or a peak above 150 MB.  The run's streams take the encoding
and error handler of this process's, so a character that the real stdout
cannot write fails here as it would there."""
import time
start = time.perf_counter()
import contextlib, io, resource, sys  # noqa: E401, E402
from transdiv.cli import main  # noqa: E402

code, line, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
out, err = (io.TextIOWrapper(io.BytesIO(), stream.encoding, stream.errors) for stream in (sys.stdout, sys.stderr))
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    got = main(argv)
usage = resource.getrusage(resource.RUSAGE_SELF)
peak, seconds, run = usage.ru_maxrss / 1024, time.perf_counter() - start, " ".join(argv)
streams = {}
for name, captured in (("stdout", out), ("stderr", err)):
    captured.flush()
    streams[name] = captured.buffer.getvalue().decode(captured.encoding, captured.errors)
print(streams["stdout"], end="")
print(f"{streams['stderr']}{run}: exit {got}, {seconds:.2f} s, peak {peak:.3f} MB, "
      f"{usage.ru_minflt} minor faults", file=sys.stderr)
stream, _, text = line.partition(":")
failures = [failure for failure, failed in [
    (f"exit {got}, not {code}", got != code),
    (f"no {line!r}", line and text not in streams.get(stream, ())),
    (f"peak {peak:.1f} MB, above 150 MB", peak > 150),
] if failed]
for failure in failures:
    print(f"error: {run}: {failure}", file=sys.stderr)
sys.exit(bool(failures))
