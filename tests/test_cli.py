import argparse
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

import sexticrank
from sexticrank import cli, exactnum, rankalg
from sexticrank.cli import main
from sexticrank.curve import CurvePoint
from sexticrank.exactnum import MAX_LITERAL_DIGITS
from sexticrank.funcfield import Poly, parse_point
from sexticrank.generators import full_certificate, verify_certificate_json

DOCS = Path(__file__).resolve().parent.parent / "docs"

#: environment in which a child interpreter imports the package under test
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(sexticrank.__file__).parents[1]),
                  os.environ.get("PYTHONPATH")]))}


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def load_schema(name):
    with open(DOCS / name) as fh:
        return json.load(fh)


def test_rank_text_known_rank3_pair(capsys):
    assert run_cli(["rank", "1", "16"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "A = 1 (class 1), B = 16 (class 16)",
        "r = [1, 1, 0, 1]",
        "  r1 = 1: 4AB = 64 = (4)^3; A = 1 = (1)^2",
        "  r2 = 1: A = 1 = (1)^3; B = 16 = (4)^2",
        "  r3 = 0: B = 16 is not a cube; A = 1 = (1)^2",
        "  r4 = 1: 4AB = 64 = (4)^3; B = 16 = (4)^2",
        "rank = 3",
    ]


def test_rank_zero_pair(capsys):
    assert run_cli(["rank", "2", "3"]) == 0
    assert "rank = 0" in capsys.readouterr().out


def test_rank_twisted_reason_text(capsys):
    assert run_cli(["rank", "-3", "1"]) == 0
    out = capsys.readouterr().out
    assert "-3*A = 9 = (3)^2 (twisted)" in out


def test_rank_json_matches_schema(capsys):
    assert run_cli(["rank", "1", "16", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    jsonschema.validate(data, load_schema("breakdown.schema.json"))
    assert data["rank"] == 3 and data["r"] == [1, 1, 0, 1]


def test_rank_rejects_zero_A(capsys):
    assert run_cli(["rank", "0", "5"]) == 2
    assert "A must be nonzero" in capsys.readouterr().err


def test_rank_rejects_zero_B(capsys):
    assert run_cli(["rank", "5", "0"]) == 2
    assert "B must be nonzero" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["1.5", "two", "1/0", "1e3", ""])
def test_rank_rejects_non_rational_literals(bad, capsys):
    assert run_cli(["rank", bad, "5"]) == 2
    assert capsys.readouterr().err


#: a rank-1 pair within the digit cap: A = -3c^3/(4d^2) has 1,902 digits
#: and B = -d^2/3 has 1,001, but the descended k = 4 witness's y has the
#: coefficient 512d^9/(729c^6) of about 4,500 digits
_C, _D = 10 ** 300 + 7, 3 * (10 ** 499 + 9)
HUGE_POINT_PAIR = [str(Fraction(-3 * _C ** 3, 4 * _D ** 2)),
                   str(Fraction(-_D ** 2, 3))]


# the last four ended in a traceback at the interpreter's 4,300-digit
# int/str limit: 4AB of the rank pair has 4,805 digits, certify of the
# descent pair builds larger integers still, and the last pair's
# literals pass the cap but its witness does not print
@pytest.mark.parametrize("argv", [
    ["rank", "1" * (MAX_LITERAL_DIGITS + 1), "5"],
    ["rank", "1" * 2402, "2" * 2402],
    ["certify", str(-3 * (10 ** 600 + 7) ** 6), str((10 ** 600 + 9) ** 6)],
    ["certify", *HUGE_POINT_PAIR],
    ["oracle", *HUGE_POINT_PAIR, "--k", "4", "--format", "json"],
], ids=["one-digit-over-the-cap", "rank-2402-digits",
        "certify-descent-3601-digits", "certify-4500-digit-coefficient",
        "oracle-4500-digit-coefficient"])
def test_huge_literals_are_a_usage_error(argv, capsys):
    assert run_cli(argv) == 2
    assert "digits, above the limit" in capsys.readouterr().err


def test_rank_accepts_fraction_literals(capsys):
    assert run_cli(["rank", "1/64", "16/729"]) == 0
    assert "rank = 3" in capsys.readouterr().out


def test_rank_accepts_negative_fraction_literals(capsys):
    # (-27, -432) rescaled by sixth powers: A*(1/2)^6, B*(2/3)^6
    assert run_cli(["rank", "-27/64", "-16/27", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["A"], data["B"], data["rank"]) == ("-27/64", "-16/27", 3)


def test_certify_accepts_negative_fraction_literals(capsys):
    assert run_cli(["certify", "-27/64", "-16/27", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["A"], data["B"], data["rank"]) == ("-27/64", "-16/27", 3)


def test_oracle_accepts_negative_fraction_literals(capsys):
    assert run_cli(["oracle", "-1/8", "9", "--k", "2", "--height", "6"]) == 0
    out = capsys.readouterr().out
    assert "k=2: criterion holds, search found 1 point(s), agrees" in out


def test_certify_text_known_witness(capsys):
    assert run_cli(["certify", "8", "9"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "A = 8, B = 9: rank 1",
        "witness k=2: (-2*s, 3*s) on y^2 = x^3 + 8*s^3 + 9*s^2",
        "  construction: x = -cbrt(A)*s, y = sqrt(B)*s",
        "  embeds as (-2*t^2, 3)",
        "checks passed: 9/9",
        "re-verification from JSON: ok",
    ]
    # README shows the same run, one "# " line per output line
    readme = (DOCS.parent / "README.md").read_text().splitlines()
    start = readme.index("    sexticrank certify 8 9") + 1
    shown = readme[start:start + len(out) + 1]
    assert shown == [f"    # {line}" for line in out] + [""]


def test_certify_text_descent_witness(capsys):
    assert run_cli(["certify", "-3", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [
        "A = -3, B = 1: rank 1",
        "witness k=3: (4*s^2 - s, 8*s^3 - 3*s^2) on y^2 = x^3 - 3*s^4 + s^3",
        "  construction: parameter inversion of the k=2 point of the swapped "
        "pair: x = -cbrt(B)*s, y = sqrt(A)*s^2; then Galois descent: "
        "omega-twist plus its conjugate",
        "  embeds as (4*t^6 - 1, 8*t^9 - 3*t^3)",
        "checks passed: 9/9",
        "re-verification from JSON: ok",
    ]


def test_certify_rank_zero_is_fine(capsys):
    assert run_cli(["certify", "2", "3"]) == 0
    out = capsys.readouterr().out
    assert "rank 0" in out and "checks passed: 3/3" in out


def test_certify_descent_case_json(capsys):
    # the certificate stores the descended point, not how it was built
    assert run_cli(["certify", "-3", "1", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["witnesses"] == [{
        "k": 3,
        "subfamily_point": "(4*s^2 - s, 8*s^3 - 3*s^2)",
        "embedded_point": "(4*t^6 - 1, 8*t^9 - 3*t^3)",
    }]


def test_certify_requires_pair_without_verify(capsys):
    assert run_cli(["certify"]) == 2
    assert "A and B are required" in capsys.readouterr().err


def test_certify_output_verify_roundtrip(tmp_path, capsys):
    path = tmp_path / "cert.json"
    assert run_cli(["certify", "1", "16", "--output", str(path)]) == 0
    capsys.readouterr()
    assert run_cli(["certify", "--verify", str(path)]) == 0
    assert "certificate verifies" in capsys.readouterr().out

    data = json.loads(path.read_text())
    data["witnesses"][0]["subfamily_point"] = "(4, s + 9)"
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(data))
    assert run_cli(["certify", "--verify", str(tampered)]) == 1
    out = capsys.readouterr().out
    assert "DOES NOT verify" in out


@pytest.mark.parametrize("A,B", [(8, 9), (-27, -432)])
def test_certify_prints_the_certificate_it_writes(A, B, tmp_path, capsys):
    # one serialisation: stdout and --output carry the same bytes, and
    # --verify lists the checks stored in the file, in the same order and
    # the same JSON form
    path = tmp_path / "cert.json"
    assert run_cli(["certify", str(A), str(B), "--format", "json",
                    "--output", str(path)]) == 0
    assert capsys.readouterr().out == path.read_text()
    assert run_cli(["certify", "--verify", str(path), "--format", "json"]) == 0
    verified = json.loads(capsys.readouterr().out)["checks"]
    assert verified == json.loads(path.read_text())["checks"]


def test_certify_verify_unreadable_file(tmp_path, capsys):
    assert run_cli(["certify", "--verify", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("extra", [["1", "16"], ["--output", "G.json"]],
                         ids=["with-pair", "with-output"])
def test_certify_verify_refuses_pair_and_output(extra, tmp_path, capsys,
                                                monkeypatch):
    path = tmp_path / "cert.json"
    assert run_cli(["certify", "8", "9", "--output", str(path)]) == 0
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    assert run_cli(["certify", *extra, "--verify", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == (
        "sexticrank certify: error: --verify takes no A, B or --output")
    assert not (tmp_path / "G.json").exists()


#: the last stderr line of each usage error a command checks itself: it
#: names the command and follows the command's usage, as argparse's own
#: checks of that command do; an argument no command takes is the
#: top-level parser's error
@pytest.mark.parametrize("argv,message", [
    (["rank", "0", "5"], "sexticrank rank: error: A must be nonzero"),
    (["rank", "5", "0"], "sexticrank rank: error: B must be nonzero"),
    (["certify"], "sexticrank certify: error: A and B are required"),
    (["certify", "0", "1"], "sexticrank certify: error: A must be nonzero"),
    (["certify", "1", "0"], "sexticrank certify: error: B must be nonzero"),
    (["certify", "--verify", "missing.json"],
     "sexticrank certify: error: cannot read certificate: [Errno 2] "
     "No such file or directory: 'missing.json'"),
    (["census", "--bound", "10001"],
     "sexticrank census: error: --bound is above the limit of 10000"),
    (["oracle", "0", "16"], "sexticrank oracle: error: A must be nonzero"),
    (["oracle", "1", "0"], "sexticrank oracle: error: B must be nonzero"),
    (["oracle", "1", "16", "--height", "21"],
     "sexticrank oracle: error: --height is above the limit of 20"),
    (["census", "--bound", "2", "--format", "tsv"],
     "sexticrank: error: unrecognized arguments: --format tsv"),
    (["rank", "1", "-1.5"], "sexticrank rank: error: argument B: '-1.5' "
     "is not an integer or p/q rational literal"),
    (["rank", "1", "-1/-2"], "sexticrank rank: error: argument B: '-1/-2' "
     "is not an integer or p/q rational literal"),
    (["oracle", "-1/-2", "3"], "sexticrank oracle: error: argument A: "
     "'-1/-2' is not an integer or p/q rational literal"),
    (["certify", "1", "-0x10"], "sexticrank certify: error: argument B: "
     "'-0x10' is not an integer or p/q rational literal"),
    (["rank", "\u0661", "\u0661\u0666"], "sexticrank rank: error: argument A: "
     "'\u0661' is not an integer or p/q rational literal"),
], ids=["rank-A-zero", "rank-B-zero", "certify-no-pair", "certify-A-zero",
        "certify-B-zero", "certify-verify-missing-file", "census-bound-cap",
        "oracle-A-zero", "oracle-B-zero", "oracle-height-cap",
        "census-format", "rank-negative-decimal", "rank-negative-denominator",
        "oracle-negative-denominator", "certify-negative-hex",
        "rank-arabic-indic-digits"])
def test_usage_errors(argv, message, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    prog = message.split(": error: ")[0]
    assert err.startswith(f"usage: {prog} [-h]")
    assert err.splitlines()[-1] == message


def test_main_builds_no_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (["rank", "1", "16"], ["rank", "2", "3", "--format", "json"],
                 ["census", "--bound", "1"]):
        assert run_cli(argv) == 0
    assert built == []


CENSUS_BOUND_1 = """\
A\tB\tA_class\tB_class\tr1\tr2\tr3\tr4\trank\tclassify_case
-1\t-1\t-1\t-1\t0\t0\t0\t0\t0\t0
-1\t1\t-1\t1\t0\t1\t0\t0\t1\t1
1\t-1\t1\t-1\t0\t0\t1\t0\t1\t1
1\t1\t1\t1\t0\t1\t1\t0\t2\t2c
# pairs 4
# rank histogram 0:1 1:2 2:1
# classify agreements 4/4
"""


def test_census_bound_one_exact(capsys):
    assert run_cli(["census", "--bound", "1"]) == 0
    assert capsys.readouterr().out == CENSUS_BOUND_1


def test_census_contains_rank3_row(capsys):
    assert run_cli(["census", "--bound", "16"]) == 0
    out = capsys.readouterr().out
    assert "1\t16\t1\t16\t1\t1\t0\t1\t3\t3" in out.splitlines()


def test_census_jobs_byte_identical(capsys):
    assert run_cli(["census", "--bound", "12"]) == 0
    single = capsys.readouterr().out
    assert run_cli(["census", "--bound", "12", "--jobs", "3"]) == 0
    assert capsys.readouterr().out == single


def test_census_rejects_bad_bound(capsys):
    assert run_cli(["census", "--bound", "0"]) == 2
    assert run_cli(["census", "--bound", "-5"]) == 2


def test_census_bound_above_the_cap_is_refused(capsys):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["census", "--bound", "1000000000"])
    assert exc.value.code == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == "" and "--bound is above the limit" in err


@pytest.mark.parametrize("jobs", ["1", "2"] + [
    # a pooled census once stalled on shutdown in about one run in
    # fifteen, so the pooled case runs eight times
    pytest.param("2", id=f"2-repeat{i}") for i in range(1, 8)])
def test_census_into_a_closed_pipe_exits_1_without_traceback(jobs):
    with subprocess.Popen(
            [sys.executable, "-m", "sexticrank.cli", "census", "--bound",
             "100", "--jobs", jobs],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=CHILD_ENV) as proc:
        assert proc.stdout.readline().startswith(b"A\tB\t")
        proc.stdout.close()
        try:
            assert proc.wait(timeout=30) == 1
        finally:
            proc.kill()
        assert b"Traceback" not in proc.stderr.read()


@pytest.mark.parametrize("run", range(10))
def test_census_ends_on_ctrl_c_with_exit_130(run):
    # a terminal's Ctrl-C sends SIGINT to the whole process group, the
    # pool's workers included; bound 3000 is far from done after 1 s
    with subprocess.Popen(
            [sys.executable, "-m", "sexticrank.cli", "census", "--bound",
             "3000", "--jobs", "2"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env=CHILD_ENV, start_new_session=True) as proc:
        try:
            assert proc.stdout.readline().startswith(b"A\tB\t")
            time.sleep(1)
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=15)
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        assert proc.returncode == 130
        assert err == b"sexticrank: interrupted\n"


def test_oracle_text(capsys):
    assert run_cli(["oracle", "8", "9", "--k", "2"]) == 0
    out = capsys.readouterr().out
    assert "k=2: criterion holds, search found 1 point(s), agrees" in out
    assert "(-2*s, 3*s)" in out


def test_oracle_all_components_json(capsys):
    assert run_cli(["oracle", "8", "9", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert [r["k"] for r in data["results"]] == [1, 2, 3, 4]
    assert [r["satisfied"] for r in data["results"]] == [False, True,
                                                         False, False]
    assert data["results"][1]["found"] == ["(-2*s, 3*s)"]
    assert all(r["agrees"] for r in data["results"])


def test_oracle_inconclusive_is_not_failure(capsys):
    assert run_cli(["oracle", "-27", "16", "--k", "1"]) == 0
    out = capsys.readouterr().out
    assert "inconclusive" in out


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sexticrank.cli", "rank", "1", "16"],
        capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0
    assert "rank = 3" in proc.stdout


#: what neither rank nor census may load: certify and oracle import
#: their engines when they run
DEFERRED = ("sexticrank.generators", "sexticrank.curve", "sexticrank.funcfield",
            "sexticrank.oracle", "dataclasses", "inspect")


def test_rank_and_census_load_no_certificate_or_oracle_module():
    code = ("import sys\n"
            "from sexticrank import cli\n"
            "assert cli.main(['rank', '1', '16', '--format', 'json']) == 0\n"
            "assert cli.main(['census', '--bound', '30']) == 0\n"
            "print(sorted(set(sys.argv[1:]) & set(sys.modules)),"
            " file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", code, *DEFERRED],
                          capture_output=True, text=True, env=CHILD_ENV,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "[]\n"


def test_certify_and_oracle_import_their_engines(tmp_path):
    # their records are NamedTuples, so the engines bring no dataclasses
    # and, with it, no inspect
    code = ("import sys\n"
            "from sexticrank import cli\n"
            "path, *names = sys.argv[1:]\n"
            "assert cli.main(['certify', '1', '16', '--output', path]) == 0\n"
            "assert cli.main(['certify', '--verify', path]) == 0\n"
            "assert cli.main(['oracle', '2', '3', '--height', '4']) == 0\n"
            "print(sorted(set(names) & set(sys.modules)), file=sys.stderr)\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "cert.json"),
         "sexticrank.generators", "sexticrank.oracle", "dataclasses",
         "inspect"],
        capture_output=True, text=True, env=CHILD_ENV, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "['sexticrank.generators', 'sexticrank.oracle']\n"


UNFACTORABLE = "10000000000000000000000083000000000000000000000091"


def test_rank_unfactorable_class_is_null_with_reason(capsys):
    assert run_cli(["rank", UNFACTORABLE, "5", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    jsonschema.validate(data, load_schema("breakdown.schema.json"))
    assert data["A_class"] is None and UNFACTORABLE in data["A_class_reason"]
    assert data["B_class"] == 5 and "B_class_reason" not in data
    assert run_cli(["rank", UNFACTORABLE, "5"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"A = {UNFACTORABLE} (class unknown), B = 5 (class 5)"
    assert out[1] == f"A class unknown: {data['A_class_reason']}"


#: sha256 of the stdout of `certify A B --format json`
PINNED_CERTIFICATE_SHA256 = {
    (8, 9): "1b581e1231452125b7d364c5b905e9cc4eebe4b8b509084b017c9103271c1e97",
    (-3, 1): "b3bf89224dde984c5a3987fef8906da2692afbacd41b8baa113e61b148e1406a",
    (4, 4): "e6f646957ae71f1708f215d8248259e6828dcb70b6cf27ce266673ea7039d396",
    (1, 16): "3ff235f2c1cdabe35880d2e29239c68732210be58505a52bfea589ebdad1b389",
    (-27, -432):
        "063768351617f31caace46b64540b33d5c21896e9dc862536ef7ed5c445afcdb",
    (1, -27): "20f72e97a7f131d9f9801e26f64d6cdbe7bd7ae6f01573c13177e4c6403ce1a5",
}


@pytest.mark.parametrize("A,B", [*PINNED_CERTIFICATE_SHA256, (2, 3)])
def test_certify_json_matches_schema(A, B, capsys):
    assert run_cli(["certify", str(A), str(B), "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    jsonschema.validate(data, load_schema("certificate.schema.json"))
    assert list(data) == ["A", "B", "rank", "r", "witnesses", "checks"]
    assert len(data["witnesses"]) == data["rank"]
    for w in data["witnesses"]:
        assert list(w) == ["k", "subfamily_point", "embedded_point"]
    assert all(c["passed"] for c in data["checks"])


@pytest.mark.parametrize("A,B", list(PINNED_CERTIFICATE_SHA256))
def test_certify_json_bytes_pinned(A, B, capsys):
    assert run_cli(["certify", str(A), str(B), "--format", "json"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED_CERTIFICATE_SHA256[(A, B)]


#: sha256 of the stdouts of `certify A B --format json`, concatenated in
#: order of A, then B, over every integer pair with |A|, |B| <= 40 and
#: rank > 0: 141 certificates, 51 of them with a Galois-descent witness
PINNED_CERTIFICATES_TO_40_SHA256 = (
    "860d2ec8dfccc80ba5bca1284dad3aeaa536f0e4e1d8ad8bf1178d1ed8497bd5")


def test_every_positive_rank_certificate_to_bound_40_pinned(capsys):
    values = [v for v in range(-40, 41) if v]
    pairs = [(A, B) for A in values for B in values
             if rankalg.rank_breakdown(A, B).rank > 0]
    assert len(pairs) == 141
    digest = hashlib.sha256()
    for A, B in pairs:
        assert run_cli(["certify", str(A), str(B), "--format", "json"]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == PINNED_CERTIFICATES_TO_40_SHA256


#: sha256 of the stdout of `certify --verify FILE`, in text and in
#: `--format json`, on the certificate that `certify A B --output FILE`
#: writes
PINNED_VERIFY_SHA256 = {
    (8, 9): ("85ffa2f0e452b49986bc3ef892287d107bf7127de42db71d45cc7a99fbd28a5e",
             "054610288c481205c00d457764108de105f71ee81eac252d187d80565895a918"),
    (-3, 1): ("c8b1e3aaeefaf96fc1c056ab69ab6f8494e8660e932f387ee3e8724342f154dd",
              "48f734df7c3c8f2d590b793e38697e4240276ddb2d87d3412a1f8c702e84bb21"),
    (4, 4): ("d88cb2b17620bf12020677f55b15e8485f12e22c0a230bbb9dbaf58af54999af",
             "8a2ba9294008524138b579b8f308078c6db8a4a8aeae2b36e3e5f4f44e27a7e5"),
    (1, 16): ("acc5ce92fa5533353692198d794cb50c4ca8bb3f8a98472d89fdc10ad8f7d30c",
              "b37d5a009dd1965b1562b091e134ab5a455d6ce7a760e6d195791bf45cf76af4"),
    (-27, -432):
        ("e438b1fcd309fa3b6621630815268947caf7eb08f5bb1e96302622f7f21f96be",
         "9d7716b16df5ad66c777429c345e3555bf78fcb3981265cbb57de4a195fb8bb4"),
    (1, -27): ("1b5f3a86d1eab9bf2ad7aac51432ace02621f119140ef0c43e45a552e1c19dcf",
               "51043d39c5bd3cb6244eedd4ba180af7b2a44e9139939c828d0fb9e07c9e43f6"),
}


@pytest.mark.parametrize("A,B", list(PINNED_VERIFY_SHA256))
def test_certify_verify_bytes_pinned(A, B, tmp_path, capsys):
    path = tmp_path / "cert.json"
    assert run_cli(["certify", str(A), str(B), "--output", str(path)]) == 0
    capsys.readouterr()
    digests = []
    for fmt in ("text", "json"):
        assert run_cli(["certify", "--verify", str(path), "--format", fmt]) == 0
        digests.append(
            hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert tuple(digests) == PINNED_VERIFY_SHA256[(A, B)]


#: sha256 of the stdout of `oracle A B ARGS...`: text and JSON of k=1
#: descent-shape searches, and JSON of searches over all four k
PINNED_ORACLE_SHA256 = {
    ("-27", "54", "--k", "1", "--height", "8"):
        "f0cf79942876c39daa8648cbd3f0066dcd9bc8a3ee120d7bdae75be46e477096",
    ("-27", "54", "--k", "1", "--height", "8", "--format", "json"):
        "a5c38362ffd6f25236f1ac61f008c1173433ff40159da007d79d59c10d1b050c",
    ("-12", "36", "--k", "1", "--height", "8"):
        "3fb3dbf8558355f855f4170a55ff941d51d84e926e635f98a91588dc08d42c5c",
    ("-12", "36", "--k", "1", "--height", "8", "--format", "json"):
        "7b7e8063fcc74d881b7a049b66c71b86183500baa289f04f816ff78f7f90fa85",
    ("1", "16", "--height", "12", "--format", "json"):
        "1124b29550312081ffa17a67ba501dec47f94afa5e0c8dc978671f95638bdfc5",
    ("8", "9", "--height", "12", "--format", "json"):
        "5d94293763021c8ed3a8814f72972d2c5e98f22f54a86422c6dc49a6639f1860",
    ("2", "3", "--height", "12", "--format", "json"):
        "debd189099e491cc654a376e32ed8ea5a2dcbdab41b6b927ffd9b34470f6bfa6",
    ("-3", "1", "--height", "12", "--format", "json"):
        "b412823d3404a8f69e63e0a9faac0e0c039f095ff938d77d92d02502b59605f0",
}


@pytest.mark.parametrize("args", list(PINNED_ORACLE_SHA256))
def test_oracle_bytes_pinned(args, capsys):
    assert run_cli(["oracle", *args]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED_ORACLE_SHA256[args]


#: sha256 of the stdout of `census --bound 30`
PINNED_CENSUS_30_SHA256 = (
    "217bed908288cffe6c2bcad09cbb076991390b257d6d8c2e4f38dd5d8bb80bba")


def test_census_bytes_pinned(capsys):
    assert run_cli(["census", "--bound", "30"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED_CENSUS_30_SHA256


def census_with_2c_at_rank_3(capsys, monkeypatch, bound, pairs, jobs):
    # a case table that gives case 2c the wrong rank makes every 2c pair
    # a disagreement between the routes; the parent decodes the endings,
    # so the table applies to a pooled census too
    monkeypatch.setattr(cli, "CASE_RANK", {**cli.CASE_RANK, "2c": 3})
    assert run_cli(["census", "--bound", str(bound), "--jobs", jobs]) == 1
    out, err = capsys.readouterr()
    rows = [line.split("\t") for line in out.splitlines()[1:]
            if not line.startswith("#")]
    assert len(rows) == pairs
    bad = [(a, b) for a, b, *_, case in rows if case == "2c"]
    assert bad
    assert (f"# classify agreements {pairs - len(bad)}/{pairs}"
            in out.splitlines())
    assert err.splitlines() == [f"disagreement at A = {a}, B = {b}"
                                for a, b in bad]


def test_census_names_each_disagreement_in_row_order(capsys, monkeypatch):
    for jobs in ("1", "2"):
        census_with_2c_at_rank_3(capsys, monkeypatch, 30, 60 * 60, jobs)


def test_census_names_disagreements_across_fold_batches(capsys, monkeypatch):
    # bound 100 has 198 values, so its 39,204 rows are folded in many
    # blocks (one per A when pooled), and the 2c pairs lie in several
    assert 39204 > 8 * rankalg.CENSUS_BATCH
    for jobs in ("1", "2"):
        census_with_2c_at_rank_3(capsys, monkeypatch, 100, 198 * 198, jobs)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_census_fold_reads_only_blocks_with_a_disagreement(capsys,
                                                           monkeypatch, jobs):
    read, seen = [], []

    class Text(str):
        """A block's text that records being read row by row."""

        def splitlines(self):
            read.append(self)
            return super().splitlines()

    def blocks(bound, jobs):
        for text, counts in rankalg.census_blocks(bound, jobs):
            seen.append((text, counts))
            yield Text(text), counts

    monkeypatch.setattr(cli, "census_blocks", blocks)
    monkeypatch.setattr(cli, "CASE_RANK", {**cli.CASE_RANK, "2c": 3})
    assert run_cli(["census", "--bound", "100", "--jobs", jobs]) == 1
    # the 2c pairs lie in some blocks only, and only those are read
    with_2c = [text for text, counts in seen
               if any(ending.endswith("\t2c") for ending in counts)]
    assert 0 < len(with_2c) < len(seen) - 1
    assert read == with_2c


def test_census_fold_decodes_one_and_two_character_cases(capsys,
                                                         monkeypatch):
    # the fold reads "rank\tcase" off a row's last four characters
    assert all(1 <= len(case) <= 2 for case in cli.CASE_RANK)
    monkeypatch.setattr(cli, "CASE_RANK", {**cli.CASE_RANK, "1": 0, "2c": 3})
    for jobs in ("1", "2"):
        assert run_cli(["census", "--bound", "30", "--jobs", jobs]) == 1
        out, err = capsys.readouterr()
        lines = out.splitlines()
        rows = [line.split("\t") for line in lines[1:-3]]
        wrong = [cols for cols in rows if cols[9] in ("1", "2c")]
        assert {cols[9] for cols in wrong} == {"1", "2c"}
        bad = [(cols[0], cols[1]) for cols in wrong]
        assert lines[-3:] == [
            "# pairs 3600",
            "# rank histogram 0:3481 1:102 2:13 3:4",
            f"# classify agreements {3600 - len(bad)}/3600",
        ]
        assert err.splitlines() == [f"disagreement at A = {a}, B = {b}"
                                    for a, b in bad]


#: sha256 of the stdout of `census --bound 100`
PINNED_CENSUS_100_SHA256 = (
    "a349889db87f63e18843206d5ccdd1b686ead84dbaa19cf33441cfd725bc7c9b")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_census_100_bytes_pinned(capsys, jobs):
    assert run_cli(["census", "--bound", "100", "--jobs", jobs]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PINNED_CENSUS_100_SHA256


#: sha256 of the stdout of `rank A B` and of `rank A B --format json`.
#: Together the pairs satisfy every criterion, reach every square kind
#: (square, -3 times a square, neither) and include a class that cannot
#: be factored.
PINNED_RANK_SHA256 = {
    ("1", "16"): (
        "5ed330324c085a6db09d04a2287127fc16e0648f5f6b71739239924e4d3aa5c7",
        "f49fa8e8e3c1ee765a4ee8abbec778ad65d797c36d592216cfcd27cc63065845"),
    ("16", "1"): (
        "e9efe7055eecf1e8e7341540ce4f0988bc4dc4b190b090b13655300b0a58ed64",
        "1ab63b0077abf7140052489eb6cc8e417de1aca6ae88cef8ab369f52f68107ee"),
    ("-3", "1"): (
        "68501135dcfd2818a1a59c6bf54b70c4e17fef00f7c785e3fa5dec6134e5afed",
        "bf52e8215cf20a5ea1af7c8024bb8987af146f7cc2eeeae06af8aa29556baffa"),
    ("-27", "-432"): (
        "7d5ac9e951f44e0681746d6856f4252eb83700a257843381bee36961bcfca606",
        "622ee44855bf7365fd9753a478741da4f3f34b486d84679d328d81e61bfd64c3"),
    ("2", "3"): (
        "03b8fbef628d3c176485accea34ab375d90565ffaede2cb0b802aa4724dccda0",
        "6aabc30d97d5df434e68e07ee49dbf633c82f994d08854e74ded0fa6afbeb6f4"),
    ("1/64", "-3/4"): (
        "608b369bb05fcd54ece9e7942732ac33ed99cb197fc6d9eef84ed0e6d68d1312",
        "e0282816b5996403d3096ae2477383f3c17707c34b71522c162a5487f211304a"),
    (UNFACTORABLE, "5"): (
        "1ff6146da6abea4db352e64afeab264d1064ba74ed6de32572928d05936f3a1a",
        "986a6ec5ca49f0bfdcd864cbc8619907a78a944258c24ebf7d093103f66fed9b"),
}


@pytest.mark.parametrize("A,B", list(PINNED_RANK_SHA256))
def test_rank_bytes_pinned(A, B, capsys):
    digests = []
    for fmt in ("text", "json"):
        assert run_cli(["rank", A, B, "--format", fmt]) == 0
        digests.append(
            hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert tuple(digests) == PINNED_RANK_SHA256[(A, B)]


@pytest.fixture(scope="module")
def cert_1_16():
    return full_certificate(1, 16).data


def verify_in_subprocess(tmp_path, data, timeout=30):
    """certify --verify on data in a fresh interpreter, timeout seconds
    at most; returns the names of the failed checks."""
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    proc = subprocess.run(
        [sys.executable, "-m", "sexticrank.cli", "certify", "--verify",
         str(path)],
        capture_output=True, text=True, timeout=timeout, env=CHILD_ENV)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1
    lines = proc.stdout.splitlines()
    assert lines[-1] == "certificate DOES NOT verify"
    return [line[len("FAIL "):] for line in lines if line.startswith("FAIL ")]


def _with(key, value, witness=None):
    def mutate(data):
        data = json.loads(json.dumps(data))
        (data if witness is None else data["witnesses"][witness])[key] = value
        return data
    return mutate


def _without_witnesses(data):
    return {key: v for key, v in data.items() if key != "witnesses"}


@pytest.mark.parametrize("tamper,k", [
    (_with("A", "2"), 1),
    (_with("embedded_point", "(t^2, t^3 + 1)", witness=2), 4),
], ids=["A-changed", "embedded-point-off-curve"])
def test_verify_off_curve_tamper_ends_quickly(tamper, k, cert_1_16, tmp_path):
    failures = verify_in_subprocess(tmp_path, tamper(cert_1_16))
    assert f"k={k}: embedded point on sextic curve" in failures
    assert f"k={k}: Shioda height" in failures


@pytest.mark.parametrize("witness,k", [(0, 1), (2, 4)])
def test_verify_embedded_point_at_infinity_fails_the_height(
        witness, k, cert_1_16, tmp_path):
    failures = verify_in_subprocess(
        tmp_path, _with("embedded_point", "O", witness=witness)(cert_1_16))
    assert f"k={k}: Shioda height" in failures
    assert f"k={k}: eigenspace identity for tau^{k}" in failures
    assert f"k={k}: embedded point on sextic curve" not in failures


@pytest.fixture(scope="module")
def cert_neg3_1():
    return full_certificate(-3, 1).data


def _negated_y(text, var):
    """The point with y negated: still on the same curve and nonzero."""
    x, y = parse_point(text, var)
    return CurvePoint(x, -y).to_str(var)


def _stored_field_changes(data):
    """(what, changed certificate) for each field the verifier reads."""
    A, B = Fraction(data["A"]), Fraction(data["B"])
    yield "A", _with("A", str(A + 1))(data)
    yield "B", _with("B", str(B + 1))(data)
    yield "rank", _with("rank", data["rank"] + 1)(data)
    for i in range(4):
        r = list(data["r"])
        r[i] = 1 - r[i]
        yield f"r[{i}]", _with("r", r)(data)
    for i, w in enumerate(data["witnesses"]):
        yield f"witness {i} k", _with("k", w["k"] % 4 + 1, witness=i)(data)
        for key, var in (("subfamily_point", "s"), ("embedded_point", "t")):
            yield (f"witness {i} {key}",
                   _with(key, _negated_y(w[key], var), witness=i)(data))


@pytest.mark.parametrize("pair", [(1, 16), (-3, 1)], ids=["1-16", "neg3-1"])
def test_verify_checks_every_stored_field(pair):
    data = full_certificate(*pair).data
    assert verify_certificate_json(data).ok
    for what, changed in _stored_field_changes(data):
        assert not verify_certificate_json(changed).ok, what


@pytest.mark.parametrize("pair", [(1, 16), (-3, 1)], ids=["1-16", "neg3-1"])
def test_verify_ignores_stored_results_and_other_fields(pair):
    data = full_certificate(*pair).data
    report = verify_certificate_json(data)
    for i, c in enumerate(data["checks"]):
        flipped = json.loads(json.dumps(data))
        flipped["checks"][i]["passed"] = not c["passed"]
        assert verify_certificate_json(flipped) == report, c["name"]
    extra = _with("family", "anything")(data)
    extra["witnesses"][0]["used_descent"] = 0
    assert verify_certificate_json(extra) == report


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_verify_refuses_a_sqrt_point_cleanly(fmt, cert_neg3_1, capsys,
                                             tmp_path):
    # the reader builds over Q only, so sqrt(-3) is no coefficient
    data = _with("subfamily_point", "(s, sqrt(-3)*s^2)", witness=0)(cert_neg3_1)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    assert run_cli(["certify", "--verify", str(path), "--format", fmt]) == 1
    out, err = capsys.readouterr()
    if fmt == "json":
        failed = [c["name"] for c in json.loads(out)["checks"]
                  if not c["passed"]]
    else:
        failed = [line[len("FAIL "):] for line in out.splitlines()
                  if line.startswith("FAIL ")]
    assert failed == [
        "k=3: parse/verify error: field 'subfamily_point': coefficient "
        "'sqrt(-3)' is not an integer or p/q with q > 0"]
    assert err == ""


def test_commands_construct_no_quadext(monkeypatch, tmp_path, capsys):
    # the commands compute over Q; Q(sqrt(-3)) serves the tests' references
    made = []
    init = exactnum.QuadExt.__init__

    def counted(self, *args, **kwargs):
        made.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(exactnum.QuadExt, "__init__", counted)
    path = str(tmp_path / "cert.json")
    for A, B in PINNED_CERTIFICATE_SHA256:
        A, B = str(A), str(B)
        for argv in (["certify", A, B, "--output", path],
                     ["certify", "--verify", path],
                     ["oracle", A, B, "--height", "4"], ["rank", A, B]):
            assert run_cli(argv) == 0, argv
    assert run_cli(["census", "--bound", "10"]) == 0
    capsys.readouterr()
    assert len(made) == 0


#: the texts of points whose value would be huge: the third x is an
#: integer of 2^30 bits, and the last is a 200 KB sum
HUGE_POINTS = [
    "((s+1)^100000, s + 8)", "(s^20000, s + 8)",
    "(((((2^64)^64)^64)^64)^64, s + 8)",
    "(" + "+".join(["s"] * 100_000) + ", 1)"]


@pytest.mark.parametrize("point,named", zip(HUGE_POINTS, [
    "coefficient '(s+1)^100000' is not an integer or p/q",
    "degree 20000 is above the reader's limit of 64",
    "coefficient '((((2^64)^64)^64)^64)^64' is not an integer or p/q",
    "(199999 characters) is not a power of s",
]), ids=[*HUGE_POINTS[:3], "sum-of-100000-terms"])
def test_verify_huge_degree_point_ends_quickly(point, named, cert_1_16,
                                               tmp_path):
    failures = verify_in_subprocess(
        tmp_path, _with("subfamily_point", point, witness=0)(cert_1_16))
    assert any(name.startswith("k=1: parse/verify error: field "
                               "'subfamily_point': ") and named in name
               for name in failures), failures


def test_check_names_quote_a_bounded_excerpt(cert_1_16):
    long = "+".join(["s"] * 100_000)
    for mutate in [_with("subfamily_point", f"({long}, 1)", witness=0),
                   _with("embedded_point", f"({long}, 1)", witness=1),
                   _with("k", long, witness=2), _with("A", long),
                   _with("witnesses", long)]:
        report = verify_certificate_json(mutate(cert_1_16))
        assert not report.ok
        assert all(len(c.name) < 200 for c in report.checks), report.failures


def test_verify_point_with_large_coprime_denominators_ends(cert_1_16, tmp_path):
    # only a power of s is a denominator, so no gcd is ever run on input
    x = " + ".join(f"1/(s+{i})" for i in range(1, 33))
    point = f"({x}, s^32/(s-1)^31)"
    failures = verify_in_subprocess(
        tmp_path, _with("subfamily_point", point, witness=0)(cert_1_16))
    assert failures == ["k=1: parse/verify error: field 'subfamily_point': "
                        "denominator 's+32' is not a power of s"]


def _dense_in_s(rng, digits, fractions):
    """A dense polynomial of degree 32 in s, as to_str writes it, with
    random coefficients whose numerators (and denominators, if
    fractions) have the given number of digits."""
    def draw():
        return rng.randrange(10 ** (digits - 1), 10 ** digits)
    return Poly([Fraction(draw(), draw() if fractions else 1)
                 for _ in range(33)]).to_str("s")


def _stall_point(kind):
    rng = random.Random(kind)
    if kind == "dense-1000-digit-fractions":
        return (f"({_dense_in_s(rng, 1000, True)}, "
                f"{_dense_in_s(rng, 1000, True)})")
    digits = 20 if kind == "ratio-20-digits" else 1000
    num, den = (_dense_in_s(rng, digits, False) for _ in range(2))
    return f"(({num})/({den}), s + 8)"


@pytest.mark.parametrize("kind,named", [
    ("ratio-20-digits", "is not a power of s"),
    ("ratio-1000-digits", "is not a power of s"),
    ("dense-1000-digit-fractions", "has more than 4 terms"),
], ids=["ratio-20-digits", "ratio-1000-digits", "dense-1000-digit-fractions"])
def test_verify_dense_point_is_refused_within_5_s(kind, named, cert_1_16,
                                                  tmp_path):
    # reducing a general quotient takes a gcd of dense polynomials, and
    # the curve test on a dense point cubes 33 terms of 2,000-digit
    # fractions: each costs seconds to minutes, so each is refused first
    point = _stall_point(kind)
    failures = verify_in_subprocess(
        tmp_path, _with("subfamily_point", point, witness=0)(cert_1_16),
        timeout=5)
    assert len(failures) == 1, failures
    assert failures[0].startswith(
        "k=1: parse/verify error: field 'subfamily_point': ")
    assert named in failures[0]


def test_verify_refuses_an_equal_but_non_canonical_point(cert_1_16, tmp_path):
    assert cert_1_16["witnesses"][0]["subfamily_point"] == "(4, s + 8)"
    failures = verify_in_subprocess(
        tmp_path, _with("subfamily_point", "(4, 8 + s)", witness=0)(cert_1_16))
    assert failures == ["k=1: parse/verify error: field 'subfamily_point': "
                        "'8 + s' is not canonical; it is written 's + 8'"]


@pytest.mark.parametrize("B,named,schema_refuses", [
    ("+16", "'+16' is not canonical; it is written '16'", True),
    ("016", "'016' is not canonical; it is written '16'", True),
    ("16/1", "'16/1' is not canonical; it is written '16'", True),
    # no pattern can express lowest terms
    ("32/2", "'32/2' is not canonical; it is written '16'", False),
    ("\uff11\uff16", "'\uff11\uff16' is not an integer or p/q rational literal",
     True),
], ids=["plus-sign", "leading-zero", "denominator-one", "unreduced",
        "fullwidth-digits"])
def test_verify_refuses_an_equal_but_non_canonical_pair(
        B, named, schema_refuses, cert_1_16):
    data = _with("B", B)(cert_1_16)
    report = verify_certificate_json(data)
    assert [c.name for c in report.checks if not c.passed] == [
        f"malformed certificate: field 'B': {named}"]
    schema = load_schema("certificate.schema.json")
    if schema_refuses:
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(data, schema)
    else:
        jsonschema.validate(data, schema)


def test_certificate_with_literals_of_900_digits_verifies(tmp_path, capsys):
    # its coefficients are p/q with p and q together past MAX_LITERAL_DIGITS
    u, v = 10 ** 150 + 7, 10 ** 150 + 3
    A, B = str(-27 * u ** 6), str(-432 * v ** 6)
    path = tmp_path / "cert.json"
    assert run_cli(["certify", A, B, "--output", str(path)]) == 0
    capsys.readouterr()
    data = json.loads(path.read_text())
    assert data["rank"] == 3
    assert max(len(w[key]) for w in data["witnesses"]
               for key in ("subfamily_point", "embedded_point")) > 12_000
    assert run_cli(["certify", "--verify", str(path)]) == 0
    assert capsys.readouterr().out.endswith("certificate verifies\n")


@pytest.mark.parametrize("mutate,named", [
    (_without_witnesses, "no field 'witnesses'"),
    (lambda data: [data], "no field 'A'"),
    (_with("A", "0"), "nonzero"),
    (_with("A", "1.5"), "'1.5' is not an integer or p/q rational literal"),
    (_with("A", "1" * (MAX_LITERAL_DIGITS + 1)), "digits, above the limit"),
    (_with("k", "one", witness=0), "field 'k' is 'one'"),
    (_with("k", 7, witness=0), "field 'k' is 7"),
    (_with("rank", 3.0), "stored rank and criteria match"),
    (_with("r", [True, True, False, True]), "stored rank and criteria match"),
    (_with("r", [1, 1, 0, 1.0]), "stored rank and criteria match"),
], ids=["no-witnesses", "list", "A-zero", "A-decimal", "A-too-many-digits",
        "k-one", "k-seven", "rank-float", "r-bools", "r-float"])
def test_verify_malformed_certificate_is_a_named_failure(mutate, named,
                                                         cert_1_16, tmp_path):
    failures = verify_in_subprocess(tmp_path, mutate(cert_1_16))
    assert any(named in name for name in failures), failures


def test_verify_refuses_more_witnesses_than_criteria_at_once(
        cert_1_16, tmp_path, capsys):
    data = json.loads(json.dumps(cert_1_16))
    data["witnesses"] += data["witnesses"][:2]
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    start = time.perf_counter()
    assert run_cli(["certify", "--verify", str(path)]) == 1
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().out.splitlines() == [
        "FAIL malformed certificate: 5 witnesses, more than the 4 criteria",
        "certificate DOES NOT verify",
    ]


def test_verify_deeply_nested_point_is_a_named_failure(cert_1_16, tmp_path):
    point = "(" + "(" * 5000 + "s" + ")" * 5000 + ", s + 8)"
    failures = verify_in_subprocess(
        tmp_path, _with("subfamily_point", point, witness=0)(cert_1_16))
    assert any(name.startswith("k=1: parse/verify error") and
               "characters) is not an integer or p/q" in name
               for name in failures), failures


@pytest.mark.parametrize("content", [
    b"[" * 200_000 + b"]" * 200_000,
    b"\xff\xfe\x7b",
], ids=["json-nested-200000", "not-utf8"])
def test_verify_unreadable_certificate_is_a_usage_error(content, tmp_path):
    path = tmp_path / "cert.json"
    path.write_bytes(content)
    proc = subprocess.run(
        [sys.executable, "-m", "sexticrank.cli", "certify", "--verify",
         str(path)],
        capture_output=True, text=True, timeout=30, env=CHILD_ENV)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 2
    assert "cannot read certificate" in proc.stderr


@pytest.mark.parametrize("target", ["missing-dir/cert.json", "."],
                         ids=["no-such-directory", "a-directory"])
def test_certify_unwritable_output_is_a_usage_error(target, tmp_path, capsys):
    code = run_cli(["certify", "8", "9", "--output", str(tmp_path / target)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "cannot write certificate" in err


def test_oracle_height_above_the_cap_is_refused(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "1", "16", "--height", "1000000000"])
    assert exc.value.code == 2
    assert "--height is above the limit" in capsys.readouterr().err
