"""The benchmark's tracer wraps cumalg's functions and methods by name, and
reads some of its private state while jobs run and once they end; a rename or
deletion of a traced or read name must fail here, not only in the slower
benchmark suite."""
import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import k2_doc

ROOT = Path(__file__).resolve().parents[1]

# install the tracer, run traced jobs in this process, then take the
# end-of-process counters and dump everything: argv[1] is the dump path, the
# rest are `cli.run` argument lists as JSON
TRACED_RUN = """
import json, sys
import spans
tracer = spans.Tracer()
spans.install(tracer)
from cumalg import cli
codes = [cli.run(json.loads(argv)) for argv in sys.argv[2:]]
spans.end_of_process(tracer)
tracer.dump(sys.argv[1])
sys.exit(max(codes, default=0))
"""


def traced(*args):
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    return subprocess.run(
        [sys.executable, "-c", *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )


def test_benchmark_trace_hooks_install():
    proc = traced("import spans; spans.install(spans.Tracer())")
    assert proc.returncode == 0, proc.stderr


def test_benchmark_tracer_reads_run_time_state(tmp_path):
    transfer = tmp_path / "k2.json"
    transfer.write_text(json.dumps(k2_doc()), encoding="utf-8")
    moments = tmp_path / "moments.json"
    moments.write_text(json.dumps({"moments": ["1/2", "1/3", "1/5"]}), encoding="utf-8")
    jobs = [
        ["transfer", "--input", f"transfer={transfer}", "--output", str(tmp_path / "t.json")],
        ["cumulants", "--input", f"moments={moments}", "--output", str(tmp_path / "c.json")],
    ]
    dump = tmp_path / "trace.json"
    proc = traced(TRACED_RUN, str(dump), *(json.dumps(argv) for argv in jobs))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(dump.read_text(encoding="utf-8"))
    assert doc["calls"]["cli.handler"] == 2
    assert doc["counts"]["morphisms.on_monomial.misses"] > 0
    assert doc["counts"]["cumulant.context.misses"] > 0
    assert "coalgebra.coproduct.memo_size" in doc["counts"]
