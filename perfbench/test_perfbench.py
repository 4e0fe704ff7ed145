"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from reference import sympy_reference  # noqa: E402
from tracer import Tracer, per_layer_metrics  # noqa: E402

from sexticrank import cli  # noqa: E402


@pytest.fixture(scope="module")
def ref():
    return sympy_reference()


def _cli(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


# -- inputs -------------------------------------------------------------------

@pytest.mark.parametrize("make", [inputs.certify_pairs, inputs.rank_queries,
                                  inputs.oracle_units])
def test_same_seed_gives_identical_inputs(make):
    assert repr(make(11)).encode() == repr(make(11)).encode()
    assert make(11) != make(12)


def test_certify_mix_is_the_fixed_pairs_and_a_seed_ordered_draw(ref):
    pairs = inputs.certify_pairs(3)
    fixed = [(Fraction(a), Fraction(b)) for a, b in inputs.FIXED_CERTIFY_PAIRS]
    assert pairs[:len(fixed)] == fixed
    assert len(pairs) == len(fixed) + inputs.CERTIFY_DRAW
    assert all(ref.rank(a, b) > 0 for a, b in pairs)
    assert sorted(pairs) == sorted(inputs.certify_pairs(4))


def test_rank_mix_keeps_both_defects_at_fixed_shares():
    queries = inputs.rank_queries(5)
    assert len(queries) == inputs.RANK_BLOCKS * len(inputs.RANK_BLOCK)
    negative_fraction = sum(
        any(x < 0 and x.denominator != 1 for x in (a, b))
        for a, b, _ in queries)
    assert negative_fraction == inputs.RANK_BLOCKS * 3

    def big_prime_part(n):
        for p in inputs._SMALL_PRIMES:
            while n % p == 0:
                n //= p
        return n

    big_denominator = sum(
        any(big_prime_part(x.denominator) > 1 for x in (a, b))
        for a, b, _ in queries)
    assert big_denominator == inputs.RANK_BLOCKS * 4


def test_recorded_census_expectation_matches_the_reference(ref):
    assert checks.census_expectation(inputs.CENSUS_BOUND, ref) == {
        **inputs.CENSUS_EXPECT,
        "rank3": [tuple(p) for p in inputs.CENSUS_EXPECT["rank3"]]}


def test_reference_on_known_instances(ref):
    assert ref.components(1, 16) == (1, 1, 0, 1)
    assert ref.components(8, 9) == (0, 1, 0, 0)
    assert ref.rank(4, 4) == 2
    assert ref.rank(-27, -432) == 3
    assert ref.sixth_class(Fraction(1, 2)) == 32


# -- checkers reject tampered outputs ------------------------------------------

def test_census_checker_rejects_one_flipped_field(ref):
    bound = 20
    expect = checks.census_expectation(bound, ref)
    text = _cli("census", "--bound", str(bound))
    checks.check_census(text, bound, ref, expect)
    lines = text.split("\n")
    for row, field in ((1, 4), (57, 6), (300, 2), (len(lines) - 6, 9)):
        fields = lines[row].split("\t")
        fields[field] = "1" if fields[field] == "0" else "0"
        tampered = "\n".join(lines[:row] + ["\t".join(fields)] + lines[row + 1:])
        with pytest.raises(checks.CheckFailed):
            checks.check_census(tampered, bound, ref, expect)


def test_certificate_checker_rejects_an_altered_point(ref):
    schema = checks.load_schema(ROOT, "certificate.schema.json")
    text = _cli("certify", "1", "16", "--format", "json")
    checks.check_certificate(text, 1, 16, ref, schema)
    for field in ("subfamily_point", "embedded_point"):
        data = json.loads(text)
        point = data["witnesses"][1][field]
        data["witnesses"][1][field] = point.replace(",", " + 1,", 1)
        with pytest.raises(checks.CheckFailed):
            checks.check_certificate(json.dumps(data), 1, 16, ref, schema)


def test_rank_checkers_reject_a_wrong_class(ref):
    schema = checks.load_schema(ROOT, "breakdown.schema.json")
    A, B = Fraction(1, 2), Fraction(16)
    text = _cli("rank", str(A), str(B), "--format", "json")
    checks.check_rank_json(text, A, B, ref, schema)
    data = json.loads(text)
    data["A_class"] = 2
    with pytest.raises(checks.CheckFailed):
        checks.check_rank_json(json.dumps(data), A, B, ref, schema)
    from sexticrank import classify
    summary = workloads.classify_summary(classify(A, B))
    checks.check_classify(summary, A, B, ref)
    rank, case, _, b_bar = summary.split()
    with pytest.raises(checks.CheckFailed):
        checks.check_classify(f"{rank} {case} 2 {b_bar}", A, B, ref)


def test_oracle_checker_rejects_a_wrong_verdict(ref):
    text = _cli("oracle", "8", "9", "--height", "12")
    checks.check_oracle(text, 8, 9, (1, 2, 3, 4), ref)
    for bad in (text.replace("k=1: criterion fails", "k=1: criterion holds"),
                text.replace("(-2*s, 3*s)", "(-2*s, 3*s + 1)")):
        with pytest.raises(checks.CheckFailed):
            checks.check_oracle(bad, 8, 9, (1, 2, 3, 4), ref)


# -- failures are counted, not crashes -----------------------------------------

def test_exit_2_and_factor_budget_are_failed_ops(tmp_path, ref):
    runner = workloads.Runner(tmp_path)
    rank = workloads.Rank(0)
    negative_fraction = (Fraction(-3, 4), Fraction(1), "small_den")
    big_denominator = (Fraction(1, 1000003), Fraction(5), "big1_den")
    rank.run_unit(runner, negative_fraction)
    rank.run_unit(runner, big_denominator)
    status = [(r.kind, r.ok) for r in runner.records]
    assert status == [("rank", False), ("classify", True),
                      ("rank", True), ("classify", False)]
    assert runner.records[0].error.startswith("RuntimeError: exit 2")
    assert runner.records[3].error.startswith("FactorBudgetExceeded")
    assert run.judge(rank, runner.records, ref)
    # exit 2 without a "-p/q" argument is not the known defect
    runner.cli("rank", (Fraction(1),), ["rank", "1"])
    assert runner.records[-1].error.startswith("RuntimeError: exit 2")
    assert not run.judge(rank, runner.records, ref)


def test_an_exit_1_makes_the_run_wrong(tmp_path, ref):
    runner = workloads.Runner(tmp_path)
    certify = workloads.Certify(0)
    pair = (Fraction(1), Fraction(16))
    certify.run_unit(runner, pair)
    assert [r.ok for r in runner.records] == [True, True]
    assert run.judge(certify, runner.records, ref)
    path = tmp_path / "certificate.json"
    data = json.loads(path.read_text())
    point = data["witnesses"][1]["embedded_point"]
    data["witnesses"][1]["embedded_point"] = point.replace(",", " + 1,", 1)
    path.write_text(json.dumps(data))
    runner.cli("verify", pair, ["certify", "--verify", str(path)])
    assert runner.records[-1].error.startswith("RuntimeError: exit 1")
    assert not run.judge(certify, runner.records, ref)


# -- tracing ------------------------------------------------------------------

def _traced_counts(tmp_path):
    workload = workloads.Certify(0)
    tracer = Tracer()
    runner = workloads.Runner(tmp_path, tracer)
    tracer.install()
    try:
        workload.run_unit(runner, (Fraction(-3), Fraction(1)))
    finally:
        tracer.uninstall()
    return tracer


def test_traced_counts_repeat_and_originals_come_back(tmp_path):
    from sexticrank import cli as cli_module, funcfield, generators
    before = (cli_module.main, funcfield.Poly.__mul__, funcfield.Poly.__rmul__,
              generators.eigenspace_check)
    first, second = _traced_counts(tmp_path), _traced_counts(tmp_path)
    assert (cli_module.main, funcfield.Poly.__mul__, funcfield.Poly.__rmul__,
            generators.eigenspace_check) == before
    counts = [{k: v for k, v in t.metrics().items()
               if k.endswith(("calls", "ratio", "rows", "failed"))}
              for t in (first, second)]
    assert counts[0] == counts[1]
    m = first.metrics()
    assert m["cli.main.calls"] == 2
    assert m["generators.full_certificate.calls"] == 1
    assert m["generators.galois_descent_combine.calls"] == 1
    assert m["generators.eigenspace_check.build_calls"] == 2
    assert m["generators.eigenspace_check.verify_calls"] == 1
    assert m["funcfield.parse_point.calls"] > 0
    assert 0 < m["funcfield.poly_gcd.nontrivial_ratio"] < 1
    assert 0 < m["funcfield.poly_gcd.self_s"] < m["generators.full_certificate.total_s"]


def test_census_trace_times_rows_and_pool_wait(tmp_path):
    workload = workloads.Census(0, bound=20, expect=None)
    tracer = Tracer()
    runner = workloads.Runner(tmp_path, tracer)
    tracer.install()
    try:
        for unit in workload.units():
            workload.run_unit(runner, unit)
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["rankalg.census_rows.rows"] == 1 + 40 * 40
    assert 0 < m["rankalg.census_rows.first_row_s"] <= m["rankalg.census_rows.total_s"]
    assert m["rankalg.census_rows.wait_s"] > 0
    assert m["cli.main.calls"] == 1  # the jobs 2 op runs untraced
    assert [r.digest for r in runner.records][0] == runner.records[1].digest


# -- metrics ------------------------------------------------------------------

def test_latency_is_the_median_run_of_each_input():
    def rec(key, seconds, ok=True):
        return workloads.Record("rank", key, seconds, ok, "", None, "", 0.1)

    runs = ((1, 0.5), (1, 0.3), (1, 0.1), (2, 0.2), (2, 0.2), (3, 0.9),
            (3, 1.0))
    records = [rec(k, s) for k, s in runs] + [rec(4, 0.01, ok=False)]
    stats = run.latency_stats(records, "rank", runs=2)
    assert stats["inputs"] == 3 and stats["samples"] == 6
    assert stats["p50"] == pytest.approx(400)  # input 1 ignores its third run
    assert stats["p90"] == pytest.approx(950)
    calibrated = run.latency_stats(records, "rank", runs=2, calibrated=True)
    assert calibrated["p50"] == pytest.approx(4)  # seconds / 0.1 s probe


# -- the benchmark contract ----------------------------------------------------

def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        per_layer_metrics()


def test_exits_nonzero_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rank", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
