"""The four workloads: what one unit of work runs and how it is checked.

Ops run in-process through ``sexticrank.cli.main(argv)`` (or a library
call), one at a time: a closed loop with one client.  An op that exits
nonzero or raises is a failed op; it stays out of the latency samples,
and unless it is one of the two known defects (``checks.known_defect``)
it makes the run's output wrong.
The checks import sympy and jsonschema only when they run, after the
measurement, so that peak RSS is that of the program.
"""

import contextlib
import hashlib
import importlib
import io
from dataclasses import dataclass
from time import perf_counter

import inputs


@dataclass
class Record:
    kind: str
    key: tuple
    seconds: float
    ok: bool
    digest: str
    text: object  # the output; None when failed or already seen
    error: str
    probe: float = 0.0  # calibration probe time around the op, if taken
    argv: tuple = ()  # the CLI arguments, for a CLI op
    run: int = 0  # the pass of the run that made the record


class Runner:
    """Runs program calls and keeps what the checks need."""

    def __init__(self, workdir, tracer=None):
        self.workdir = workdir
        self.tracer = tracer
        self.records = []
        self._seen = set()
        self._cli = importlib.import_module("sexticrank.cli")
        self.package = importlib.import_module("sexticrank")

    def cli(self, kind: str, key: tuple, argv: list) -> Record:
        """``sexticrank <argv>`` with stdout and stderr captured; ok when
        it returns or exits with code 0."""
        out, err = io.StringIO(), io.StringIO()

        def main():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = self._cli.main(argv)
                except SystemExit as exc:
                    code = exc.code
            if code:
                lines = err.getvalue().strip().splitlines()
                raise RuntimeError(f"exit {code}: {lines[-1] if lines else ''}")

        record = self.call(kind, key, main, lambda _: out.getvalue())
        record.argv = tuple(argv)
        return record

    def call(self, kind: str, key: tuple, fn, render) -> Record:
        """Time ``fn()``; ``render`` turns its result into the text the
        checks read, outside the timed region."""
        op = self.tracer.op(kind) if self.tracer else contextlib.nullcontext()
        with op:
            start = perf_counter()
            try:
                result = fn()
                error = ""
            except Exception as exc:  # an op that raises counts as failed
                error = f"{type(exc).__name__}: {exc}"[:300]
            seconds = perf_counter() - start
        text, digest = None, ""
        if not error:
            text = render(result)
            digest = hashlib.sha256(text.encode()).hexdigest()
            if (kind, key, digest) in self._seen:
                text = None
            self._seen.add((kind, key, digest))
        record = Record(kind, key, seconds, not error, digest, text, error)
        self.records.append(record)
        return record

    @contextlib.contextmanager
    def pool_wait_only(self):
        """With jobs > 1, trace only the parent's wait on its workers."""
        if self.tracer is None:
            yield
            return
        self.tracer.uninstall()
        self.tracer.install_pool_wait()
        try:
            yield
        finally:
            self.tracer.uninstall()
            self.tracer.install()


def classify_summary(cls) -> str:
    """The parts of a Classification the check compares."""
    norm = cls.normalized
    return f"{cls.rank} {cls.case} {norm.A_bar} {norm.B_bar}"


class Workload:
    """One workload; ``units`` is one pass over its seeded inputs."""

    name = ""
    primary = secondary = ""
    #: passes a run makes at least and counts; an input's latency is the
    #: median of its runs in them
    passes = 2

    def units(self) -> list:
        raise NotImplementedError

    def run_unit(self, runner: Runner, unit):
        raise NotImplementedError

    def check(self, records: list, ref, root):
        raise NotImplementedError

    def named_metrics(self, stats: dict) -> dict:
        """The workload's metrics under their ROADMAP names, as
        name -> (value, unit), from the primary/secondary latency stats."""
        raise NotImplementedError


def _texts(records, kind):
    return [r for r in records if r.kind == kind and r.text is not None]


class Certify(Workload):
    name = "certify"
    primary, secondary = "build", "verify"
    passes = 3

    def __init__(self, seed: int):
        self.pairs = inputs.certify_pairs(seed)
        self.file_mismatches = []

    def units(self):
        return self.pairs

    def run_unit(self, runner, pair):
        A, B = pair
        path = runner.workdir / "certificate.json"
        build = runner.cli("build", pair, [
            "certify", str(A), str(B), "--format", "json", "--output", str(path)])
        if not build.ok:
            return
        stored = path.read_bytes()
        if hashlib.sha256(stored).hexdigest() != build.digest:
            self.file_mismatches.append(pair)
        runner.cli("verify", pair, ["certify", "--verify", str(path)])

    def check(self, records, ref, root):
        from checks import (CheckFailed, check_certificate, check_verify_output,
                            load_schema)

        if self.file_mismatches:
            raise CheckFailed(f"--output file differs from stdout for "
                              f"{self.file_mismatches[0]}")
        schema = load_schema(root, "certificate.schema.json")
        for rec in _texts(records, "build"):
            check_certificate(rec.text, *rec.key, ref, schema)
        for rec in _texts(records, "verify"):
            check_verify_output(rec.text, f"certify --verify for {rec.key}")

    def named_metrics(self, stats):
        return {"certify_p50_ms": (stats["build"]["p50"], "ms"),
                "certify_p90_ms": (stats["build"]["p90"], "ms"),
                "verify_p50_ms": (stats["verify"]["p50"], "ms"),
                "verify_p90_ms": (stats["verify"]["p90"], "ms")}


class Census(Workload):
    name = "census"
    primary, secondary = "jobs1", "jobs2"
    passes = 7

    def __init__(self, seed: int, bound=inputs.CENSUS_BOUND,
                 expect=inputs.CENSUS_EXPECT):
        self.bound, self.expect = bound, expect

    def units(self):
        return [(self.bound, 1), (self.bound, 2)]

    def run_unit(self, runner, unit):
        bound, jobs = unit
        argv = ["census", "--bound", str(bound), "--jobs", str(jobs)]
        with runner.pool_wait_only() if jobs > 1 else contextlib.nullcontext():
            runner.cli(f"jobs{jobs}", (bound,), argv)

    def check(self, records, ref, root):
        from checks import CheckFailed, check_census

        digests = {r.digest for r in records if r.ok}
        if len(digests) > 1:
            raise CheckFailed("census TSV differs between --jobs 1 and --jobs 2")
        for rec in records:
            if rec.text is not None:
                check_census(rec.text, self.bound, ref, self.expect)

    def named_metrics(self, stats):
        pairs = self.expect["pairs"]
        return {"census_pairs_per_s": (pairs / stats["jobs1"]["p50"] * 1e3, "1/s"),
                "census_j2_pairs_per_s": (pairs / stats["jobs2"]["p50"] * 1e3, "1/s")}


class Rank(Workload):
    name = "rank"
    primary, secondary = "rank", "classify"
    passes = 4

    def __init__(self, seed: int):
        self.queries = inputs.rank_queries(seed)

    def units(self):
        return self.queries

    def run_unit(self, runner, query):
        A, B, _ = query
        runner.cli("rank", (A, B), ["rank", str(A), str(B), "--format", "json"])
        runner.call("classify", (A, B),
                    lambda: runner.package.classify(A, B), classify_summary)

    def check(self, records, ref, root):
        from checks import check_classify, check_rank_json, load_schema

        schema = load_schema(root, "breakdown.schema.json")
        for rec in _texts(records, "rank"):
            check_rank_json(rec.text, *rec.key, ref, schema)
        for rec in _texts(records, "classify"):
            check_classify(rec.text, *rec.key, ref)

    def named_metrics(self, stats):
        return {"rank_p50_ms": (stats["rank"]["p50"], "ms"),
                "rank_p90_ms": (stats["rank"]["p90"], "ms"),
                "classify_p50_ms": (stats["classify"]["p50"], "ms"),
                "classify_p90_ms": (stats["classify"]["p90"], "ms")}


class Oracle(Workload):
    name = "oracle"
    primary, secondary = "sweep", "descent"

    def __init__(self, seed: int):
        self._units = inputs.oracle_units(seed)

    def units(self):
        return self._units

    def run_unit(self, runner, unit):
        kind, A, B = unit
        if kind == "descent":
            options = ["--k", "1", "--height", str(inputs.ORACLE_DESCENT_HEIGHT)]
        else:
            options = ["--height", str(inputs.ORACLE_SWEEP_HEIGHT)]
        runner.cli(kind, (A, B), ["oracle", str(A), str(B)] + options)

    def check(self, records, ref, root):
        from checks import check_descent, check_oracle

        for rec in _texts(records, "sweep"):
            check_oracle(rec.text, *rec.key, (1, 2, 3, 4), ref)
        for rec in _texts(records, "descent"):
            check_descent(rec.text, *rec.key, ref)

    def named_metrics(self, stats):
        return {"oracle_sweep_p50_ms": (stats["sweep"]["p50"], "ms"),
                "oracle_sweep_p90_ms": (stats["sweep"]["p90"], "ms"),
                "oracle_descent_s": (stats["descent"]["p50"] / 1e3, "s")}


WORKLOADS = {w.name: w for w in (Certify, Census, Rank, Oracle)}
