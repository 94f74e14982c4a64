"""Command-line round trips, verdicts, and exit codes."""

import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import revtour
import revtour.theorems
from revtour import (
    EnumSpec,
    PairFamily,
    TheoremInstance,
    Tournament,
    VerificationReport,
    census,
    enumerate_families,
)
from revtour.cli import main
from revtour.enumeration import KINDS


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
        for vertex_set in ("{1,2}", "{}", "{ 1, 2 }"):
            status, out, _ = run(
                capsys, monkeypatch, ["check", "module", "--set", vertex_set], stdin=text
            )
            assert status == 0 and json.loads(out) == {"module": True}

    def test_irreducible(self, capsys, monkeypatch):
        status, out, _ = run(
            capsys, monkeypatch,
            ["check", "irreducible", "--n", "5", "--pairs", "0-2,2-4,1-3"],
        )
        assert status == 0
        assert json.loads(out) == {"irreducible": True, "kind": "quasi-pairing"}
        status, out, _ = run(
            capsys, monkeypatch, ["check", "irreducible", "--n", "4", "--pairs", "0-1,2-3"]
        )
        assert status == 0 and json.loads(out) == {"irreducible": False, "kind": "pairing"}

    def test_irreducible_rejects_neither(self, capsys, monkeypatch):
        status, _, err = run(
            capsys, monkeypatch,
            ["check", "irreducible", "--n", "4", "--pairs", "0-1,0-2,0-3"],
        )
        assert status == 1 and "neither" in err

    def test_bad_vertex_set(self, capsys, monkeypatch):
        _, text, _ = run(capsys, monkeypatch, ["gen", "transitive", "4"])
        # Only ASCII digits name a vertex: no sign, underscore or other numeral.
        for vertex_set in ("1,2", "{1,x}", "{+1,0_2}", "{-1}", "{1,,2}", "{\u0661}"):
            status, out, err = run(
                capsys, monkeypatch, ["check", "module", "--set", vertex_set], stdin=text
            )
            assert status == 1 and out == "" and f"bad vertex set {vertex_set!r}" in err

    @pytest.mark.parametrize("argv, needs", [
        (["module"], "--set"),
        (["irreducible"], "--n and --pairs"),
        (["irreducible", "--n", "5"], "--n and --pairs"),
        (["irreducible", "--pairs", "0-1"], "--n and --pairs"),
    ])
    def test_missing_option(self, capsys, monkeypatch, argv, needs):
        status, out, err = run(capsys, monkeypatch, ["check", *argv], stdin="3\n111\n")
        assert status == 1 and out == "" and needs in err

    @pytest.mark.parametrize("text", ["3\n111\n3\n000\n", "+3\n111\n", " 0_3 \n111\n"])
    def test_text_past_the_format_is_an_input_error(self, capsys, monkeypatch, text):
        status, out, err = run(capsys, monkeypatch, ["check", "indecomposable"], stdin=text)
        assert status == 1 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["gen", "transitive", "+4"],
    ["gen", "transitive", "0_4"],
    ["check", "irreducible", "--n", " 4", "--pairs", "0-1"],
    ["enumerate", "--n", "\u0664", "--kind", "pairing"],
    ["census", "--n", "4_", "--kind", "pairing"],
    ["verify", "--theorem", "1", "--n-range", "0_5..5"],
    ["verify", "--theorem", "1", "--n-range", "5..5", "--max-n", "+5"],
    ["verify", "--theorem", "1", "--n-range", "5..5", "--jobs", "1_0"],
])
def test_numbers_are_ascii_digits_only(capsys, monkeypatch, argv):
    # int() would take each of these; the CLI takes only unsigned ASCII digits.
    status, out, err = run(capsys, monkeypatch, argv)
    assert status == 1 and out == "" and err.startswith("error: ")


@pytest.mark.parametrize("argv, option", [
    (["gen", "transitive", "3", "--pairs", "0-1"], "--pairs"),
    (["check", "indecomposable", "--set", "{1}"], "--set"),
    (["check", "indecomposable", "--n", "3"], "--n"),
    (["check", "indecomposable", "--pairs", "0-1"], "--pairs"),
    (["check", "module", "--set", "{1}", "--n", "3"], "--n"),
    (["check", "module", "--set", "{1}", "--pairs", "0-1"], "--pairs"),
    (["check", "irreducible", "--n", "3", "--pairs", "0-1", "--set", "{1}"], "--set"),
])
def test_an_option_the_what_does_not_read_is_an_input_error(capsys, monkeypatch, argv, option):
    status, out, err = run(capsys, monkeypatch, argv, stdin="3\n111\n")
    assert status == 1 and out == "" and f"{argv[0]} {argv[1]} does not read {option}" in err


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

    # sha256 of `enumerate --n N --kind K [FLAG]`, pinned from the walk that
    # yielded the mask of the vertices in two pairs rather than the hub.
    # No quasi-pairing has an even ground set, so n = 9 pins the quasi walk.
    @pytest.mark.parametrize("kind, n, flag, digest", [
        ("pairing", 8, "", "361d827308ac2f3da946f66ae739759e9f3bac32d96d6fce3d08516fb49b3680"),
        ("pairing", 8, "--irreducible-only",
         "9cb67b58008f503fb76ebd668bbec607bc28bc6ce613ee1655ff1f9d8ba2bc11"),
        ("pairing", 8, "--include-empty",
         "361d827308ac2f3da946f66ae739759e9f3bac32d96d6fce3d08516fb49b3680"),
        ("partial-pairing", 8, "",
         "0fe9982417b12a1c5f394f2738c7e3b8ef06c892601470c567333afc7c2e050b"),
        ("partial-pairing", 8, "--irreducible-only",
         "d43a2fa55bee90139cdc4186f76e66c3ad3ff2c964818cb9dd0fd813dd960645"),
        ("partial-pairing", 8, "--include-empty",
         "f853b99db9926cff8848358e0c2a125553417d7687f7e1714290ebcf0e7a453c"),
        ("quasi", 8, "", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("quasi", 8, "--irreducible-only",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("quasi", 8, "--include-empty",
         "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("quasi", 9, "", "392b0c7153043dbc7eff20d55c8d4bbd3c59b861418717e70bcb15126fe175dd"),
        ("quasi", 9, "--irreducible-only",
         "8dfb1ff9447d98a7d886dd16b3e07464c48ef8fce8d996d6127483c8aa268ae4"),
        ("quasi", 9, "--include-empty",
         "392b0c7153043dbc7eff20d55c8d4bbd3c59b861418717e70bcb15126fe175dd"),
        ("partial-quasi", 8, "",
         "228339207278fdf7e98e42d29b8c19fb40461d6e17643f906a73af6a1cc2c1b0"),
        ("partial-quasi", 8, "--irreducible-only",
         "83894fb62efadb35f54eccabc56f770459e21586056184c325ded4dd020c110d"),
        ("partial-quasi", 8, "--include-empty",
         "228339207278fdf7e98e42d29b8c19fb40461d6e17643f906a73af6a1cc2c1b0"),
    ])
    def test_golden_stream(self, capsys, monkeypatch, kind, n, flag, digest):
        argv = ["enumerate", "--n", str(n), "--kind", kind] + ([flag] if flag else [])
        status, out, _ = run(capsys, monkeypatch, argv)
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

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

    def test_golden_table(self, capsys, monkeypatch):
        # sha256 pinned from the walk that yielded the mask of the vertices
        # in two pairs; the table reads 1, 1, 1, 4, 27, 248, 2830, 38232.
        status, out, _ = run(
            capsys, monkeypatch, ["count", "irreducible-pairings", "--m-range", "0..14"]
        )
        assert status == 0
        digest = "2b9d9f582a1a807257561fd85011c1d4aa5a9acf4ba289e661f35f2fc3fdc810"
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_bad_range(self, capsys, monkeypatch):
        for m_range in ("6..2", "a..3", "1_0..+12", "2..+4", " 2..4", "2..", "\u0662..4"):
            status, out, err = run(
                capsys, monkeypatch, ["count", "irreducible-pairings", "--m-range", m_range]
            )
            assert status == 1 and out == "" and f"bad range {m_range!r}" in err

    def test_guard_is_the_enumeration_guard(self, capsys, monkeypatch):
        status, out, err = run(
            capsys, monkeypatch, ["count", "irreducible-pairings", "--m-range", "16..16"]
        )
        assert status == 1 and out == ""
        assert "enumeration of kind 'pairing' allows n <= 14, got 16" in err

    def test_guard_is_checked_before_any_count(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(
            "revtour.cli.count_irreducible_pairings", lambda *args, **kwargs: calls.append(args)
        )
        status, out, err = run(
            capsys, monkeypatch, ["count", "irreducible-pairings", "--m-range", "2..16"]
        )
        assert status == 1 and out == "" and calls == []
        assert "enumeration of kind 'pairing' allows n <= 14, got 16" in err


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

    @pytest.mark.parametrize("n_range, n_min", [("2..2", 2), ("2..6", 2), ("0..1", 0)])
    def test_theorem1_refuses_n_below_three(self, capsys, monkeypatch, n_range, n_min):
        # Its transversal test needs n >= 3, and n = 2 has the pairing {0-1}.
        status, out, err = run(
            capsys, monkeypatch, ["verify", "--theorem", "1", "--n-range", n_range]
        )
        assert status == 1 and out == ""
        assert err == f"error: theorem 1 is checked from n = 3, got n = {n_min}\n"

    @pytest.mark.parametrize("theorem, checked", [("2", 3), ("3", 3), ("corollaries", 0)])
    def test_other_runs_start_anywhere(self, capsys, monkeypatch, theorem, checked):
        # Below n = 3 they enumerate nothing; n = 3 has 3 partial quasi-pairings.
        status, out, _ = run(
            capsys, monkeypatch, ["verify", "--theorem", theorem, "--n-range", "0..3"]
        )
        assert status == 0 and json.loads(out)["checked"] == checked

    def test_corollaries_jobs_split_into_shards(self, capsys, monkeypatch, fake_shards):
        argv = ["verify", "--theorem", "corollaries", "--n-range", "5..7"]
        _, serial, _ = run(capsys, monkeypatch, argv + ["--jobs", "1"])
        assert fake_shards == []
        orbits = []
        real = revtour.theorems._orbit_lead

        def counting(n, pairs, mask):
            lead = real(n, pairs, mask)
            if lead is not None:
                orbits.append(pairs)
            return lead

        monkeypatch.setattr("revtour.theorems._orbit_lead", counting)
        _, sharded, _ = run(capsys, monkeypatch, argv + ["--jobs", "2"])
        # Two shards for the whole run, each taking its share of every walk.
        # Together they check one family per mirror orbit: 16 of the 30
        # quasi-pairings at n = 5, 11 of the 15 pairings at n = 6 and 162 of
        # the 315 quasi-pairings at n = 7.
        assert fake_shards == [2] and fake_shards.tasks == [(0, 2), (1, 2)]
        assert len(orbits) == 16 + 11 + 162
        assert MS.sub("", sharded) == MS.sub("", serial)

    def test_import_leaves_out_multiprocessing(self):
        # Every CLI call pays for what the import loads.  No run loads
        # multiprocessing, and only a run of two or more shards loads pickle.
        # No record type generates code, so neither dataclasses nor inspect
        # is loaded.
        src = str(Path(revtour.__file__).parents[1])
        code = (
            "import io, sys, revtour.cli; "
            "heavy = lambda: [m for m in ('dataclasses', 'inspect') if m in sys.modules]; "
            "print('pickle' in sys.modules, heavy()); "
            "out, sys.stdout = sys.stdout, io.StringIO(); "
            "status = revtour.cli.main(['verify', '--theorem', '3', '--n-range', '5..6', "
            "'--jobs', '2']); sys.stdout = out; "
            "print(status, 'multiprocessing' in sys.modules, heavy())"
        )
        env = {**os.environ, "PYTHONPATH": src}
        argv = [sys.executable, "-c", code]
        done = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "False []\n0 False []\n"

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

    def test_corollaries_max_n_uses_the_full_kind_guard(self, capsys, monkeypatch):
        # The corollaries enumerate full kinds, guarded at 14, so --max-n 13
        # needs no --unsafe; the enumeration guard then refuses n = 14.
        status, out, err = run(
            capsys, monkeypatch,
            ["verify", "--theorem", "corollaries", "--n-range", "14..14", "--max-n", "13"],
        )
        assert status == 1 and out == ""
        assert "n <= 13, got 14" in err and "--unsafe" not in err

    def test_partial_kind_max_n_needs_unsafe(self, capsys, monkeypatch):
        status, out, err = run(
            capsys, monkeypatch,
            ["verify", "--theorem", "1", "--n-range", "13..13", "--max-n", "13"],
        )
        assert status == 1 and out == "" and "--unsafe" in err

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

    # sha256 of `census --n N --kind K`, pinned from the implementation that
    # built the whole census as a list before printing it.
    @pytest.mark.parametrize("kind, n, digest", [
        ("pairing", 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("pairing", 4, "720d02e699cc7e088d45bcae262ca86a711e17f7ec00152831e47ec442f6b380"),
        ("pairing", 5, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("pairing", 6, "01a79681f85a37c93a1a4e0382d2a466072c4aa2a939aa0e068bb1a07c29b041"),
        ("pairing", 7, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("partial-pairing", 3, "9c89b89ed117a04befb4614c959b7aeeadbd10d40633e024edc71c64ae49690a"),
        ("partial-pairing", 4, "5d4b885e247e8cb5f35b842139547d3557a8d107ecabd0ceb4768d771d023317"),
        ("partial-pairing", 5, "91a6a3cb7bd9f1f1e12e05fd46b2c839f822e9cb3ee98c48438061c908fc39c3"),
        ("partial-pairing", 6, "c44d048fa4bb8f0e0c13be929f4166f6ee9c623f2e587f060cd56aeae67b29ce"),
        ("partial-pairing", 7, "9f89741e8fd70c19c6d639eb79e0ba8b96c761cb14129c8226420c003a457305"),
        ("quasi", 3, "f25c18c7ff52103a422640888f32248ad89e9bffdb548964f5e5af7f4605ded7"),
        ("quasi", 4, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("quasi", 5, "0b1877abd3088fea79e80611195fe69fa6b2e835d27466bf297e30ae72dd0faf"),
        ("quasi", 6, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("quasi", 7, "05334217563a7ee778e0fbf11d26160a2d060d147a69a0f7ce47f2bf8595fd5c"),
        ("partial-quasi", 3, "90c4d29569a5e321c91e31c3a9feb61cc4b01536c0e52b1bf4f8735b64ac9ae5"),
        ("partial-quasi", 4, "70b29d2225699aad72c582393111cdb996ed31ce8d737617622da503fd9892e8"),
        ("partial-quasi", 5, "f1471fc8971b88055c7b321281941bb4eb074110cca78acdb2a2ef84b926f64c"),
        ("partial-quasi", 6, "05f2138ed7649a09cc2f72c4c5faab2bd2bed1f92b0247dafe7463ee72ae3b8d"),
        ("partial-quasi", 7, "5ea9d237b56479e4f47a75c1f4939286868d8a6a129c5ec3c6c5036e3a3c7e66"),
        # n = 8, pinned from the implementation that encoded each line with json.dumps.
        ("pairing", 8, "23d8095935449d4202ef5e90a9f04cd509ef30a8189999d8fba6b015fed11880"),
        ("partial-pairing", 8, "145fc015f2d3b601f09e300b9b17d4df380e15c32a72e871dd7be821c11346bd"),
        ("quasi", 8, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
        ("partial-quasi", 8, "fe423f5fd78306d74d9cd12d926cb0d9be29bf1c6ace9bccbc9f0cedd22f186e"),
    ])
    def test_golden_stream(self, capsys, monkeypatch, kind, n, digest):
        status, out, _ = run(capsys, monkeypatch, ["census", "--n", str(n), "--kind", kind])
        assert status == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_ten_vertices_need_no_max_n(self, capsys, monkeypatch):
        status, out, err = run(capsys, monkeypatch, ["census", "--n", "10", "--kind", "pairing"])
        assert status == 0 and err == ""
        assert len(out.splitlines()) == 945

    def test_past_the_enumeration_guard_prints_nothing(self, capsys, monkeypatch):
        status, out, err = run(capsys, monkeypatch, ["census", "--n", "15", "--kind", "pairing"])
        assert status == 1 and out == ""
        assert "n <= 14, got 15" in err


class TestLineWriter:
    """Stream lines are the compact ``json.dumps`` of each record, byte for byte."""

    @staticmethod
    def compact(record: dict) -> str:
        return json.dumps(record, separators=(",", ":"))

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("flags", [[], ["--irreducible-only"], ["--include-empty"]])
    def test_enumerate(self, capsys, monkeypatch, kind, flags):
        for n in range(8):
            spec = EnumSpec(
                n, kind, "irreducible-only" if flags == ["--irreducible-only"] else "all",
                include_empty=flags == ["--include-empty"],
            )
            want = [
                self.compact({"n": n, "kind": kind, "pairs": family.serialize()})
                for family in enumerate_families(spec)
            ]
            argv = ["enumerate", "--n", str(n), "--kind", kind, *flags]
            status, out, _ = run(capsys, monkeypatch, argv)
            assert status == 0
            lines = out.splitlines()
            assert lines == want
            assert lines == [self.compact(json.loads(line)) for line in lines]

    @pytest.mark.parametrize("kind", KINDS)
    def test_census(self, capsys, monkeypatch, kind):
        first_class = []
        for n in range(8):
            want = [
                self.compact({
                    "n": n,
                    "kind": kind,
                    "pairs": record.family.serialize(),
                    "indecomposable": record.indecomposable,
                    "irreducible": record.irreducible,
                    "class": record.class_id,
                })
                for record in census(EnumSpec(n, kind))
            ]
            status, out, _ = run(capsys, monkeypatch, ["census", "--n", str(n), "--kind", kind])
            assert status == 0
            lines = out.splitlines()
            assert lines == want
            assert lines == [self.compact(json.loads(line)) for line in lines]
            first_class += [line for line in lines if line.endswith(',"class":0}')]
        # 0 == False in Python, so a lookup keyed by booleans would print false.
        assert first_class


class TestBrokenPipe:
    """A stream piped into a reader that stops early ends quietly."""

    # Each stream is over 64 KiB, more than a pipe holds, so the writer is
    # still writing when the reader closes its end.
    @pytest.mark.parametrize("argv", [
        ["enumerate", "--n", "9", "--kind", "partial-pairing"],
        ["census", "--n", "7", "--kind", "partial-quasi"],
    ])
    def test_reader_closes_after_one_line(self, argv):
        src = str(Path(revtour.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        with subprocess.Popen(
            [sys.executable, "-m", "revtour.cli", *argv], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ) as proc:
            first = json.loads(proc.stdout.readline())
            proc.stdout.close()
            status = proc.wait(timeout=60)
            err = proc.stderr.read()
        assert first["n"] == int(argv[2])
        assert status == 1 and err == b""


class TestExport:
    def test_dot(self, capsys, monkeypatch):
        _, text, _ = run(capsys, monkeypatch, ["gen", "inv", "3", "--pairs", "0-2"])
        status, out, _ = run(capsys, monkeypatch, ["export", "dot"], stdin=text)
        assert status == 0
        assert out.startswith("digraph tournament {")
        assert "  2 -> 0;" in out
