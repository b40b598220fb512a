"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import numpy as np
import pytest

import oracles
import run
import spans
from spans import Span

cli, _ = run.import_cli()


def _span(i, name, start, end, parent, thread=1, job=0):
    return Span(i, name, start, end, parent, thread, job)


def test_self_times_nested_single_thread():
    s = [_span(0, "job", 0.0, 10.0, None),
         _span(1, "a", 1.0, 5.0, 0),
         _span(2, "b", 2.0, 3.0, 1),
         _span(3, "c", 6.0, 9.0, 0)]
    selfs, overlap = spans.self_times(s)
    assert selfs == pytest.approx({0: 3.0, 1: 3.0, 2: 1.0, 3: 3.0})
    assert overlap == pytest.approx(0.0)
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_times_two_worker_threads():
    # root on thread 1; workers on threads 2 and 3 overlap in [2, 6]
    s = [_span(0, "job", 0.0, 10.0, None, thread=1),
         _span(1, "w", 1.0, 6.0, 0, thread=2),
         _span(2, "w", 2.0, 8.0, 0, thread=3),
         _span(3, "k", 3.0, 4.0, 2, thread=3)]
    selfs, overlap = spans.self_times(s)
    assert selfs == pytest.approx({0: 3.0, 1: 5.0, 2: 5.0, 3: 1.0})
    assert overlap == pytest.approx(4.0)
    assert sum(selfs.values()) == pytest.approx(10.0 + overlap)
    totals = spans.layer_totals(s, {}, 0)
    assert totals["job"]["self_s"] == pytest.approx(3.0)
    assert totals["w"]["self_s"] == pytest.approx(10.0)
    assert totals["w"]["calls"] == 2
    assert totals["workers"]["busy_s"] == pytest.approx(11.0)


def test_children_are_clipped_to_their_parent():
    s = [_span(0, "job", 0.0, 4.0, None), _span(1, "late", 3.0, 6.0, 0, thread=2)]
    selfs, _ = spans.self_times(s)
    assert selfs[0] == pytest.approx(3.0)


def test_butterflies_formula():
    assert spans.butterflies(512, 4096) == 512 * 4096 * 12
    assert spans.butterflies(1, 2) == 2
    assert spans.butterflies(3, 1) == 0
    assert spans._wht_rows("w", (np.ones((4, 8), dtype=np.int8),), {}) == (
        "w.int", {"rows": 4, "butterflies": 4 * 8 * 3})
    assert spans._wht_rows("w", (np.ones(16),), {}) == (
        "w.float", {"rows": 1, "butterflies": 16 * 4})


def test_instrumented_traces_worker_threads_and_restores():
    import certlab.boolfn as boolfn
    import certlab.fouriersample as fs

    before = (fs.wht_rows, boolfn.wht_rows, fs.HonestSampler.sample_batch, cli.json)
    tracer = spans.Tracer()
    with spans.instrumented(tracer), tracer.job_span(7) as root:
        with run.contextlib.redirect_stdout(run.io.StringIO()):
            assert cli.main(["pgpb", "--n", "4", "--trials", "20000", "--threads", "2"]) == 0
    assert (fs.wht_rows, boolfn.wht_rows, fs.HonestSampler.sample_batch, cli.json) == before
    names = {s.name for s in tracer.spans}
    assert {"fouriersample.pgpb_counts", "boolfn.wht_rows.int",
            "fouriersample.sample_batch", "cli.json_dumps"} <= names
    workers = [s for s in tracer.spans if s.name == "fouriersample.pgpb_counts"]
    assert all(s.parent == root.id and s.thread != root.thread for s in workers)
    assert all(s.job == 7 for s in tracer.spans)
    totals = spans.layer_totals(tracer.spans, tracer.counters, 7)
    assert totals["boolfn.wht_rows.int"]["rows"] == 20000
    selfs, overlap = spans.self_times(tracer.spans)
    assert sum(selfs.values()) - overlap == pytest.approx(totals["job"]["wall"])


def test_tracer_is_safe_across_threads():
    tracer = spans.Tracer()

    def work():
        for _ in range(200):
            tracer.close(tracer.open("x"))
            tracer.count("c")

    with tracer.job_span(0):
        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    assert sorted(s.id for s in tracer.spans) == list(range(801))
    assert tracer.counters[(0, "c")] == 800


def _small_job(seed=3):
    return run.run_job(cli, [["rhog", "--n", "6", "--c", "1", "--trials", "20000"]], 0, seed)


def test_wrong_pinned_digest_is_a_failure_not_a_crash():
    job = _small_job()
    assert run.check_job(job, None) == []
    problems = run.check_job(job, "0" * 64)
    assert len(problems) == 1 and "digest" in problems[0]
    assert run.check_job(job, "") != []  # a missing pin fails too


def test_run_counts_wrong_pins_as_failed(monkeypatch):
    monkeypatch.setitem(run.WORKLOADS, "pairs",
                        [["rhog", "--n", "6", "--c", "1", "--trials", "20000"]])
    monkeypatch.setattr(run, "FRESH_PROCESSES", 0)
    pins = {"pairs": ["0" * 64] * run.DISTINCT_JOBS}
    metrics, attempted, failed = run.measure(
        cli, "pairs", run.DEFAULT_SEED, 0.01, False, pins, 0.1, lambda line: None)
    assert attempted == 1 + run.MIN_JOBS and failed == attempted
    assert metrics["jobs_per_s"]["value"] > 0


def test_crashing_command_is_a_failed_job():
    job = run.run_job(cli, [["wht", "--n", "3", "--in", "/nonexistent/f.bfn1"]], 0, 1)
    assert job.problems and "exited with 1" in job.problems[0]


def test_job_seeds_are_deterministic_and_periodic():
    assert run.job_seed(5, 3) == run.job_seed(5, 3 + run.DISTINCT_JOBS)
    assert len({run.job_seed(5, j) for j in range(run.DISTINCT_JOBS)}) == run.DISTINCT_JOBS
    assert run.job_seed(5, 0) != run.job_seed(6, 0)


def test_thread_count_swap():
    argv = ["pgpb", "--n", "12", "--threads", "2", "--trials", "5"]
    assert run.with_threads(argv, 1) == ["pgpb", "--n", "12", "--threads", "1", "--trials", "5"]
    assert run.threads_of(argv) == 2 and run.threads_of(["rhog"]) == 1


def test_band_law_matches_the_exact_values():
    p_b, p_l4 = oracles.band_law(12)
    assert p_b == pytest.approx(0.20635, abs=1e-5)
    assert p_l4 == pytest.approx(0.74530, abs=1e-5)


def test_protocol_oracle_accepts_real_and_rejects_tampered_output():
    job = run.run_job(cli, [["protocol", "--n", "6", "--t", "4096", "--device", "honest",
                             "--claimed-q", "argmax"]], 0, 11)
    assert job.problems == []
    blob = job.outputs[0]
    assert oracles.check_protocol(blob, job.seed, 6, 4096, spot=64) == []
    doc = json.loads(blob)
    i = job.seed % (4096 // 64)  # the first challenge the oracle inspects
    doc["results"]["challenges"][i]["p"] += 1.0 / 4096
    bad = json.dumps(doc).encode()
    assert any(f"challenge {i}" in p for p in oracles.check_protocol(bad, job.seed, 6, 4096, spot=64))
    assert oracles.check_protocol(b"not json", job.seed, 6, 4096) != []


def test_llqsv_oracle_rejects_bad_layout_and_failed_checks():
    job = run.run_job(cli, [["llqsv", "--n", "6", "--t", "500", "--case", "fourier",
                             "--check"]], 0, 2)
    blob, err = job.outputs[0], job.stderrs[0]
    assert oracles.check_llqsv(blob, err, 6, 500) == []
    assert oracles.check_llqsv(blob[:-1], err, 6, 500) != []
    assert oracles.check_llqsv(blob, err.replace("PASS", "FAIL"), 6, 500) != []


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    want = {name: (unit, better) for name, unit, better, _ in run.PER_LAYER}
    want[run.OVERHEAD[0]] = run.OVERHEAD[1:]
    assert layer == want


def test_pinned_digests_cover_every_workload():
    pins = json.loads(Path(run.DIGESTS).read_text())
    for name in run.WORKLOADS:
        assert len(pins[name]) == run.DISTINCT_JOBS
        assert all(len(d) == 64 for d in pins[name])
