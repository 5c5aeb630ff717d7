"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import copy
import json

import pytest

import jobs
import oracles
import run
import tracer
from lehmerlab import cli

KINDS = {
    "spectra": ("mahler", "poly-check", "perron", "growth", "fit-recurrence", "lefschetz"),
    "braids": ("alexander", "lehmer-gap", "entropy"),
    "endo_growth": ("fg-iterate", "fg-growth", "fg-from-matrix", "f2-positive-aut"),
}


def _cheapest(kind):
    """The job of this kind with the shortest command line in round 0 of
    seed 0, among those the seed is expected to answer."""
    workload = next(w for w, kinds in KINDS.items() if kind in kinds)
    pool = [j for j in jobs.make_round(workload, 0, 0) if j.kind == kind]
    pool = [j for j in pool if "word>=2^16" not in j.props and "no-recurrence" not in j.props] or pool
    return min(pool, key=lambda j: len(" ".join(j.argv)))


def _run(job, runner=None):
    code, text, _ = (runner or run.Runner(cli)).run(job)
    assert code in (0, 1), (job.argv, code)
    return code, text


@pytest.mark.parametrize("workload", sorted(jobs.ROUNDS))
def test_same_seed_gives_same_jobs(workload):
    for index in (0, 1):
        first = jobs.make_round(workload, 7, index)
        again = jobs.make_round(workload, 7, index)
        assert [j.argv for j in first] == [j.argv for j in again]
        assert first == again
    assert jobs.make_round(workload, 7, 0) != jobs.make_round(workload, 8, 0)


def _scale(key, factor):
    def corrupt(r):
        r[key] *= factor

    return corrupt


def _bump_coefficient(path):
    def corrupt(r):
        obj = r
        for key in path:
            obj = obj[key]
        obj[0] = str(int(obj[0]) + 1) if isinstance(obj[0], str) else obj[0] + 1

    return corrupt


def _shift_interval(r):
    for key in ("mahler", "lower", "upper"):
        r[key] *= 1.001


def _bump_net(r):
    r["first_negative_net"] = 1 if r["first_negative_net"] is None else r["first_negative_net"] + 1


def _bump_length(r):
    first = sorted(r["per_generator"])[0]
    r["per_generator"][first][-1] += 1


def _bump_maximum(r):
    r["maxima"][1] *= 1.01


def _flip(key):
    def corrupt(r):
        r[key] = not r[key]

    return corrupt


CORRUPTIONS = {
    "mahler": _shift_interval,
    "poly-check": _flip("reciprocal"),
    "perron": _bump_net,
    "growth": _bump_coefficient(("min_poly", "char")),
    "fit-recurrence": _bump_coefficient(("char",)),
    "lefschetz": _bump_coefficient(("lefschetz",)),
    "alexander": _bump_coefficient(("det", "coeffs")),
    "lehmer-gap": _scale("gap", 1.01),
    "entropy": _scale("gr1", 1.05),
    "fg-iterate": _bump_length,
    "fg-growth": _bump_maximum,
    "fg-from-matrix": _bump_coefficient(("abelianization", 0)),
    "f2-positive-aut": _bump_coefficient(("abelianization", 0)),
}


# The failure class a corruption should get, where it is not "wrong".
CORRUPTION_CLASS = {"entropy": "inaccurate"}


def test_every_kind_has_an_oracle_and_a_corruption():
    kinds = {k for ks in KINDS.values() for k in ks}
    assert kinds == set(oracles.CHECKS) == set(CORRUPTIONS)


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_oracle_accepts_output_and_rejects_corruption(kind):
    job = _cheapest(kind)
    code, text = _run(job)
    payload = json.loads(text)
    assert oracles.verdict(job, code, payload) is None
    bad = copy.deepcopy(payload)
    CORRUPTIONS[kind](bad["result"])
    failure = oracles.verdict(job, code, bad)
    assert failure is not None and failure[0] == CORRUPTION_CLASS.get(kind, "wrong"), failure


def test_five_strand_entropy_runs_on_the_default_path():
    picked = [j for j in jobs.make_round("braids", 0, 0) if j.kind == "entropy" and j.expect["n"] == 5]
    assert len(picked) == 3 and any(j.expect["twist"] for j in picked)
    assert all("--iters" not in j.args and "--no-accel" not in j.args for j in picked)


def test_error_object_on_answerable_job_is_a_failure():
    job = _cheapest("fg-iterate")
    payload = {"error": {"type": "BudgetError", "message": "budget of 1 operations exceeded"}}
    assert oracles.verdict(job, 1, payload) == ("error", "BudgetError: budget of 1 operations exceeded")


def test_traced_and_untraced_output_are_identical():
    picked = [_cheapest(kind) for kind in sorted(CORRUPTIONS)]
    plain = [_run(job) for job in picked]
    with tracer.Tracer() as tr:
        traced = [_run(job, run.Runner(cli, tr)) for job in picked]
    assert traced == plain
    assert tr.calls["cli.main"] == len(picked)


def test_uninstall_restores_every_alias():
    from lehmerlab import dynamics, polynomial

    before = (cli.main, polynomial.roots, dynamics.poly_roots, cli.perron_check)
    with tracer.Tracer():
        assert dynamics.poly_roots is polynomial.roots is not before[1]
    assert (cli.main, polynomial.roots, dynamics.poly_roots, cli.perron_check) == before


def _traced_counts(argv):
    with tracer.Tracer() as tr:
        code, _, _ = run.Runner(cli, tr).run(jobs.Job(argv[0], tuple(argv[1:]), "tiny"))
    assert code == 0
    return {k: v for k, v in tr.calls.items() if v}, tr.metrics()


def test_traced_counts_on_tiny_jobs():
    # perron reaches roots through dynamics' `roots as poly_roots` alias and
    # perron_check through cli's `from .dynamics import perron_check`.
    calls, _ = _traced_counts(["perron", "--poly=-1,-1,1"])
    assert calls == {
        "cli.main": 1,
        "dynamics.perron_check": 1,
        "dynamics.net_traces": 1,
        "polynomial.roots": 1,
        "polynomial.squarefree_decomposition": 1,
        "polynomial.poly_gcd": 1,
    }

    calls, metrics = _traced_counts(["fg-iterate", "--endo", "a -> a b; b -> a", "--iters", "3"])
    assert calls == {"cli.main": 1, "freegroup.iterate_lengths": 2, "blockword.apply_endo_blocks": 6}
    # |phi^n(a)| = 2, 3, 5 and |phi^n(b)| = 1, 2, 3
    assert metrics["freegroup.iterate_lengths.letters_out"] == (16, "count")
    assert metrics["freegroup.budget_error_ratio"] == (0.0, "ratio")

    calls, metrics = _traced_counts(["alexander", "--braid", "s1 s2", "--n", "3"])
    assert calls == {
        "cli.main": 1,
        "braid.det_burau_minus_identity": 2,
        "braid.reduced_burau": 2,
        "braid.reduced_alexander": 1,
    }
    assert metrics["braid.reduced_burau.letters"] == (4, "count")


def test_metric_names_match_the_benchmark_file():
    with open(f"{run.ROOT}/BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_names()
    assert set(spec["paths"]) == {"perfbench"}
    assert {w["name"] for w in spec["workloads"]} <= set(jobs.ROUNDS)


def test_tail_latency_keeps_ten_samples_beyond():
    assert run.tail_latency(list(range(100))) == (90.0, 89)
    assert run.tail_latency(list(range(999))) == (90.0, 899)
    assert run.tail_latency(list(range(1000))) == (99.0, 989)
    assert run.tail_latency(list(range(99))) == (75.0, 74)
    assert run.tail_latency(list(range(12))) == (100.0, 11)
