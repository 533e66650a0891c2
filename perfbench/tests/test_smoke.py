"""Harness smoke test: every workload at minimal size, in a scratch checkout.

    python3 -m pytest perfbench/tests -q

Takes about a minute (the focus heavy cases run twice).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

# every end-to-end metric the benchmark prints, by workload, with its unit
PRINTED = {
    "focus": {"setup_s": "s", "wall_s": "s", "job_s.p50": "s",
              "lyap_P5_N5_s": "s", "lyap_P4_N6_s": "s", "eliminate_P4_N5_s": "s",
              "peak_rss_mb": "MB", "fail_ratio": "1"},
    "configs": {"setup_s": "s", "wall_s": "s", "job_s.p50": "s", "job_s.p90": "s",
                "peak_rss_mb": "MB", "fail_ratio": "1"},
    "returnmap": {"setup_s": "s", "wall_s": "s", "job_s.p50": "s",
                  "bracket_s.p50": "s", "peak_rss_mb": "MB", "fail_ratio": "1"},
}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    """What the driver gets: the committed files, without build leftovers."""
    root = tmp_path_factory.mktemp("checkout")
    ignore = shutil.ignore_patterns("__pycache__", ".perfbench_out", ".pytest_cache")
    shutil.copytree(os.path.join(ROOT, "src"), root / "src", ignore=ignore)
    shutil.copytree(BENCH, root / "perfbench", ignore=ignore)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), root)
    return root


def _run(root, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seed", "3", "--seconds", "0",
         "--small", *args], cwd=root, capture_output=True, text=True, timeout=170)


def _printed(stdout):
    """{metric: unit} from the metric lines, and the final JSON object."""
    lines = stdout.strip().splitlines()
    table = {}
    for line in lines[:-1]:
        parts = line.split()
        if not line.startswith("#") and len(parts) >= 4:
            table[parts[1]] = parts[3]
    return table, json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(PRINTED))
def test_every_end_to_end_metric_is_printed(checkout, workload):
    proc = _run(checkout, "--workload", workload, "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    table, result = _printed(proc.stdout)
    for name, unit in PRINTED[workload].items():
        assert table.get(name) == unit, (name, table)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric(checkout):
    proc = _run(checkout, "--workload", "configs", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    table, result = _printed(proc.stdout)
    want = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    from tracer import layer_metric_names

    assert set(layer_metric_names()) <= set(table)
    assert table["trace.overhead_ratio"] == "1"
    assert result["metrics"]["poly.mul.calls"]["value"] > 0


def test_corrupted_focus_reference_counts_as_failure(checkout, tmp_path):
    bad = tmp_path / "checkout"
    shutil.copytree(checkout, bad)
    with open(bad / "perfbench" / "reference" / "focus" / "lyap-P4-N2.json", "a") as fh:
        fh.write(" ")
    proc = _run(bad, "--workload", "focus", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    table, result = _printed(proc.stdout)
    assert not result["correct"] and result["failed"] >= 1
    assert "lyap-P4-N2: output differs from the reference" in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(tmp_path, "--workload", "focus", "--trace", "0")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_tracer_restores_every_patched_name():
    import cycleforge.cli  # noqa: F401  (binds every module)
    from tracer import Tracer

    def snapshot():
        return {(mod, name): value
                for mod in list(sys.modules.values())
                if getattr(mod, "__name__", "").startswith("cycleforge")
                for name, value in list(vars(mod).items())}

    from cycleforge.poly import MultiPoly

    before, mul = snapshot(), MultiPoly.__mul__
    tracer = Tracer()
    tracer.install()
    assert MultiPoly.__mul__ is not mul and MultiPoly.__rmul__ is MultiPoly.__mul__
    tracer.uninstall()
    assert MultiPoly.__mul__ is mul and MultiPoly.__rmul__ is mul
    assert snapshot() == before
