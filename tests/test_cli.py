"""Command-line round trips, verdicts, and exit codes."""

import hashlib
import io
import json
import re

import pytest

from revtour import TheoremInstance, PairFamily, Tournament, VerificationReport
from revtour.cli import main


# The "ms" member of a verification report, the one field that varies by run.
MS = re.compile(r', "ms": [-0-9.e+]+')


def run(capsys, monkeypatch, argv, stdin=""):
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    status = main(argv)
    captured = capsys.readouterr()
    return status, captured.out, captured.err


class TestGen:
    def test_transitive(self, capsys, monkeypatch):
        status, out, _ = run(capsys, monkeypatch, ["gen", "transitive", "3"])
        assert status == 0 and out == "3\n111\n"

    def test_inv_witness(self, capsys, monkeypatch):
        status, out, _ = run(capsys, monkeypatch, ["gen", "inv", "5", "--pairs", "0-2,1-4"])
        assert status == 0 and out == "5\n1011110111\n"

    def test_round_trip(self, capsys, monkeypatch):
        _, out, _ = run(capsys, monkeypatch, ["gen", "inv", "6", "--pairs", "0-3,1-4,2-5"])
        assert Tournament.from_text(out).to_text() == out

    def test_bad_pair_token_named(self, capsys, monkeypatch):
        status, _, err = run(capsys, monkeypatch, ["gen", "inv", "5", "--pairs", "0-2,1-x"])
        assert status == 1 and "1-x" in err


class TestCheck:
    def test_indecomposable_pipe(self, capsys, monkeypatch):
        _, text, _ = run(capsys, monkeypatch, ["gen", "inv", "5", "--pairs", "0-2,1-4"])
        status, out, _ = run(capsys, monkeypatch, ["check", "indecomposable"], stdin=text)
        assert status == 0 and json.loads(out) == {"indecomposable": True}

    def test_chain_is_decomposable(self, capsys, monkeypatch):
        _, text, _ = run(capsys, monkeypatch, ["gen", "transitive", "5"])
        status, out, _ = run(capsys, monkeypatch, ["check", "indecomposable"], stdin=text)
        assert status == 0 and json.loads(out) == {"indecomposable": False}

    def test_module(self, capsys, monkeypatch):
        _, text, _ = run(capsys, monkeypatch, ["gen", "transitive", "5"])
        status, out, _ = run(
            capsys, monkeypatch, ["check", "module", "--set", "{1,2}"], stdin=text
        )
        assert status == 0 and json.loads(out) == {"module": True}

    def test_irreducible(self, capsys, monkeypatch):
        status, out, _ = run(
            capsys, monkeypatch,
            ["check", "irreducible", "--n", "5", "--pairs", "0-2,2-4,1-3"],
        )
        assert status == 0
        assert json.loads(out) == {"irreducible": True, "kind": "quasi-pairing"}

    def test_irreducible_rejects_neither(self, capsys, monkeypatch):
        status, _, err = run(
            capsys, monkeypatch,
            ["check", "irreducible", "--n", "4", "--pairs", "0-1,0-2,0-3"],
        )
        assert status == 1 and "neither" in err

    def test_bad_vertex_set(self, capsys, monkeypatch):
        _, text, _ = run(capsys, monkeypatch, ["gen", "transitive", "4"])
        status, _, err = run(
            capsys, monkeypatch, ["check", "module", "--set", "1,2"], stdin=text
        )
        assert status == 1 and "vertex set" in err


class TestEnumerate:
    def test_lines(self, capsys, monkeypatch):
        status, out, _ = run(
            capsys, monkeypatch, ["enumerate", "--n", "4", "--kind", "pairing"]
        )
        assert status == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert [rec["pairs"] for rec in lines] == ["0-1,2-3", "0-2,1-3", "0-3,1-2"]
        assert all(rec["n"] == 4 and rec["kind"] == "pairing" for rec in lines)

    def test_irreducible_only(self, capsys, monkeypatch):
        status, out, _ = run(
            capsys, monkeypatch,
            ["enumerate", "--n", "4", "--kind", "pairing", "--irreducible-only"],
        )
        assert [json.loads(line)["pairs"] for line in out.splitlines()] == ["0-2,1-3"]

    def test_include_empty(self, capsys, monkeypatch):
        _, out, _ = run(
            capsys, monkeypatch,
            ["enumerate", "--n", "2", "--kind", "partial-pairing", "--include-empty"],
        )
        assert [json.loads(line)["pairs"] for line in out.splitlines()] == ["", "0-1"]

    def test_guard_needs_unsafe(self, capsys, monkeypatch):
        status, _, err = run(
            capsys, monkeypatch,
            ["enumerate", "--n", "13", "--kind", "partial-pairing", "--max-n", "13"],
        )
        assert status == 1 and "--unsafe" in err

    def test_guard_error_without_override(self, capsys, monkeypatch):
        status, _, err = run(
            capsys, monkeypatch, ["enumerate", "--n", "13", "--kind", "partial-pairing"]
        )
        assert status == 1 and "13" in err

    def test_unknown_flag_rejected(self, capsys, monkeypatch):
        status, _, err = run(
            capsys, monkeypatch,
            ["enumerate", "--n", "4", "--kind", "pairing", "--fast"],
        )
        assert status == 1 and err


class TestCount:
    def test_table(self, capsys, monkeypatch):
        status, out, _ = run(
            capsys, monkeypatch, ["count", "irreducible-pairings", "--m-range", "2..6"]
        )
        assert status == 0
        assert json.loads(out) == {"2": 1, "4": 1, "6": 4}

    def test_bad_range(self, capsys, monkeypatch):
        status, _, err = run(
            capsys, monkeypatch, ["count", "irreducible-pairings", "--m-range", "6..2"]
        )
        assert status == 1 and "6..2" in err


class TestVerify:
    def test_theorem_pass(self, capsys, monkeypatch):
        status, out, _ = run(
            capsys, monkeypatch, ["verify", "--theorem", "1", "--n-range", "5..6"]
        )
        assert status == 0
        doc = json.loads(out)
        assert doc["theorem"] == 1 and doc["violations"] == [] and doc["checked"] == 100

    def test_corollaries(self, capsys, monkeypatch):
        status, out, _ = run(
            capsys, monkeypatch, ["verify", "--theorem", "corollaries", "--n-range", "5..6"]
        )
        assert status == 0 and json.loads(out)["checked"] == 45

    @pytest.mark.parametrize("theorem, jobs", [("1", "-3"), ("corollaries", "0")])
    def test_jobs_below_one_rejected(self, capsys, monkeypatch, theorem, jobs):
        status, out, err = run(
            capsys, monkeypatch,
            ["verify", "--theorem", theorem, "--n-range", "5..5", "--jobs", jobs],
        )
        assert status == 1 and out == ""
        assert err.startswith("error:") and "jobs" in err

    def test_corollaries_jobs_go_through_the_pool(self, capsys, monkeypatch, fake_pool):
        argv = ["verify", "--theorem", "corollaries", "--n-range", "5..7"]
        _, serial, _ = run(capsys, monkeypatch, argv + ["--jobs", "1"])
        assert fake_pool == []
        _, pooled, _ = run(capsys, monkeypatch, argv + ["--jobs", "2"])
        # One pool per row that applies at n = 7: corollaries 3 and 2.
        assert fake_pool == [2, 2]
        assert MS.sub("", pooled) == MS.sub("", serial)

    # sha256 of `verify --theorem T --n-range 3..7` with the "ms" member
    # removed, pinned from the implementation that ran theorems and
    # corollaries through separate builders and drivers.
    @pytest.mark.parametrize("theorem, digest", [
        ("1", "d22c2993a079659aef3e2bfe9fcc60517505d6c8b91f5be6d7d6224bc04e7273"),
        ("2", "a49b7adcf31d7d65335b27bad95e15711cfdac546c413c06d0d75ee43eab9117"),
        ("3", "595f18ecc27ef9fc95beaf634208231110f0b99ffbee875d051945dbe7577ac2"),
        ("corollaries", "8657967732375ac1938d14a700671924b7b56c7d31587b7ba5947fd750e505ee"),
    ])
    def test_golden_report(self, capsys, monkeypatch, theorem, digest):
        status, out, _ = run(
            capsys, monkeypatch, ["verify", "--theorem", theorem, "--n-range", "3..7"]
        )
        assert status == 0
        assert hashlib.sha256(MS.sub("", out).encode()).hexdigest() == digest

    def test_violations_exit_code(self, capsys, monkeypatch):
        # Exercise the exit mapping with a fabricated failing report.
        bad = VerificationReport(1, 5, 5, checked=1)
        bad.violations.append(TheoremInstance(5, PairFamily(5, []), True, False, {}))
        monkeypatch.setattr("revtour.cli.verify_range", lambda *a, **k: bad)
        status, out, _ = run(
            capsys, monkeypatch, ["verify", "--theorem", "1", "--n-range", "5..5"]
        )
        assert status == 2
        assert json.loads(out)["violations"]


class TestCensus:
    def test_lines(self, capsys, monkeypatch):
        status, out, _ = run(
            capsys, monkeypatch, ["census", "--n", "5", "--kind", "partial-quasi"]
        )
        assert status == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 60
        indec = [rec for rec in lines if rec["indecomposable"]]
        assert len(indec) == 11
        assert all(rec["class"] is not None for rec in indec)
        assert all(
            rec["class"] is None for rec in lines if not rec["indecomposable"]
        )


class TestExport:
    def test_dot(self, capsys, monkeypatch):
        _, text, _ = run(capsys, monkeypatch, ["gen", "inv", "3", "--pairs", "0-2"])
        status, out, _ = run(capsys, monkeypatch, ["export", "dot"], stdin=text)
        assert status == 0
        assert out.startswith("digraph tournament {")
        assert "  2 -> 0;" in out
