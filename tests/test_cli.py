import json
import random
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from ckinv import ck, cli, intmat, selftest
from ckinv.groups import Z

from oracles import out_split, with_kernel

EX3_A_TEXT = "3\n1 1 1\n1 1 1\n1 0 0\n"
EX3_B_TEXT = "3\n1 1 1\n1 1 0\n1 1 0\n"


def replace_fields(report, **changes):
    """A new report with some fields changed."""
    fields = dict(zip(report._fields, report._values))
    return ck.CKReport(**{**fields, **changes})


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "ckinv.cli", *args],
                          capture_output=True, text=True)


@pytest.fixture()
def matrix_files(tmp_path):
    a = tmp_path / "a.txt"
    a.write_text(EX3_A_TEXT)
    b = tmp_path / "b.txt"
    b.write_text(EX3_B_TEXT)
    return a, b


# -- parsing ----------------------------------------------------------------

def test_parse_text_with_comments():
    text = "# a comment\n\n2\n# another\n1 1\n1 1\n"
    assert cli.parse_matrix_text(text) == [[1, 1], [1, 1]]


def test_parse_text_errors_are_positioned():
    with pytest.raises(cli.MatrixParseError, match="line 2"):
        cli.parse_matrix_text("2\n1\n1 1\n")
    with pytest.raises(cli.MatrixParseError, match="line 1"):
        cli.parse_matrix_text("x\n")
    with pytest.raises(cli.MatrixParseError, match="no size"):
        cli.parse_matrix_text("# nothing\n")
    with pytest.raises(cli.MatrixParseError, match="expected 2 rows"):
        cli.parse_matrix_text("2\n1 1\n")
    with pytest.raises(cli.MatrixParseError, match="line 4"):
        cli.parse_matrix_text("2\n1 1\n1 1\n1 1\n")


def test_parse_text_tokens_follow_the_grammar():
    # tokens are -?[0-9]+ only: int() alone would take 0_1, +1 and
    # non-ASCII digits
    for text in ("2\n0_1 1\n1 1\n", "2\n\u0661 1\n1 1\n",
                 "\u0662\n1 1\n1 1\n", "2\n+1 1\n1 1\n",
                 "2\n1.0 1\n1 1\n"):
        with pytest.raises(cli.MatrixParseError, match="not an integer"):
            cli.parse_matrix_text(text)


def test_parse_rejects_entries_past_64_bits():
    # the text grammar refuses a token of more than 19 significant digits;
    # a value past the 64-bit range, in either format, reaches validate,
    # which names the reason and the position
    big = "99999999999999999999999"
    for text in (f"1\n{big}\n", f"1\n{'9' * 5000}\n",
                 f"{'9' * 5000}\n1\n"):
        with pytest.raises(cli.MatrixParseError,
                           match="at most 19 significant digits"):
            cli.parse_matrix_text(text)
    assert cli.parse_matrix_text(f"1\n-{2 ** 63}\n") == [[-2 ** 63]]
    for entry in (2 ** 63, -2 ** 63 - 1):
        for rows in (cli.parse_matrix_text(f"2\n1 1\n1 {entry}\n"),
                     cli.parse_matrix_json(
                         '{"matrix": [[1, 1], [1, %d]]}' % entry)):
            assert rows == [[1, 1], [1, entry]]
            with pytest.raises(ck.MatrixValidationError,
                               match=f"row 1, column 1: {entry}$") as err:
                ck.validate(rows)
            assert err.value.reason == "bad-entry"
    for doc in ('{"matrix": [[%s]]}' % ("9" * 5000),
                '{"matrix": %s%s}' % ("[" * 100000, "]" * 100000)):
        with pytest.raises(cli.MatrixParseError):
            cli.parse_matrix_json(doc)


def test_load_matrix_refuses_a_file_past_the_cap(tmp_path, monkeypatch,
                                                 capsys):
    # the file is read to the cap plus one character, never whole
    monkeypatch.setattr(cli, "_MAX_FILE_CHARS", 10)
    path = tmp_path / "m.txt"
    path.write_text("2\n1 1\n1 1\n")  # 10 characters
    assert cli.load_matrix(str(path)) == [[1, 1], [1, 1]]
    path.write_text("2\n1 1\n1 1\n\n")
    with pytest.raises(cli.MatrixParseError, match="more than 10 char"):
        cli.load_matrix(str(path))
    assert cli.main(["validate", str(path)]) == cli.EXIT_INVALID
    out = capsys.readouterr().out
    assert out.count("\n") == 1 and "more than 10 characters" in out


@pytest.mark.skipif(not Path("/dev/zero").exists() or sys.platform == "win32",
                    reason="needs /dev/zero and RLIMIT_AS")
def test_validate_refuses_an_endless_file_in_bounded_memory():
    # a whole-file read of /dev/zero would allocate without bound; the
    # child gets an address-space limit so that such a read ends in
    # MemoryError, not in the machine's memory
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))

    r = subprocess.run([sys.executable, "-m", "ckinv.cli", "validate",
                        "/dev/zero"], capture_output=True, text=True,
                       timeout=60, preexec_fn=limit)
    assert r.returncode == cli.EXIT_INVALID, r.stderr[-300:]
    assert r.stdout == (f"rejected: /dev/zero holds more than "
                        f"{cli._MAX_FILE_CHARS} characters\n")


def test_parse_json_document():
    # the format checks JSON syntax and the {"matrix": ...} shape; the
    # rows' shape and entries are validate's, which names the position
    assert cli.parse_matrix_json('{"matrix": [[1, 1], [1, 0]]}') == \
        [[1, 1], [1, 0]]
    with pytest.raises(cli.MatrixParseError):
        cli.parse_matrix_json('{"rows": []}')
    with pytest.raises(cli.MatrixParseError, match="line 1"):
        cli.parse_matrix_json("{not json")
    for doc, reason, where in (
            ('{"matrix": [[1, 1], [1]]}', "not-square",
             "differ in length at row 1$"),
            ('{"matrix": [[1, "1"], [1, 1]]}', "bad-entry",
             "row 0, column 1: '1'")):
        with pytest.raises(ck.MatrixValidationError, match=where) as err:
            ck.validate(cli.parse_matrix_json(doc))
        assert err.value.reason == reason
    # JSON booleans read as 1 and 0, as validate reads booleans
    assert ck.validate(cli.parse_matrix_json(
        '{"matrix": [[true, true], [true, false]]}')).rows == \
        [[1, 1], [1, 0]]


def test_matrix_text_roundtrip():
    import numpy as np
    m = np.array([[1, 0], [1, 1]])
    assert cli.parse_matrix_text(cli.format_matrix_text(m)) == m.tolist()


# -- subcommand behaviour ---------------------------------------------------

def test_validate_command(matrix_files, tmp_path):
    a, _ = matrix_files
    r = run_cli("validate", str(a))
    assert r.returncode == 0
    assert "valid" in r.stdout

    ident = tmp_path / "id.txt"
    ident.write_text("3\n1 0 0\n0 1 0\n0 0 1\n")
    r = run_cli("validate", str(ident))
    assert r.returncode == 2
    assert "permutation" in r.stdout

    nonsquare = tmp_path / "ns.json"
    nonsquare.write_text('{"matrix": [[1, 1, 1], [1, 1, 1]]}')
    r = run_cli("validate", str(nonsquare))
    assert r.returncode == 2
    assert "square" in r.stdout


def test_invariants_text_and_json(matrix_files):
    a, b = matrix_files
    r = run_cli("invariants", str(a))
    assert r.returncode == 0
    assert "pi1_aut: Z/2" in r.stdout
    assert "ExtS1: Z^1" in r.stdout

    r = run_cli("invariants", str(b))
    assert "pi1_aut: Z/2 + Z/2" in r.stdout
    assert "pi2_aut: Z/2" in r.stdout

    r = run_cli("invariants", str(a), "--json")
    doc = json.loads(r.stdout)
    assert list(doc) == ["n", "K0", "K1", "ExtW1", "ExtW0", "ExtS1",
                         "ExtS0", "pi1_aut", "pi2_aut", "pi1_aut_stable",
                         "pi2_aut_stable", "iota_one_order"]
    assert doc["K0"] == {"rank": 0, "torsion": [2]}
    assert doc["ExtS1"] == {"rank": 1, "torsion": []}
    assert doc["iota_one_order"] == 0


def test_invariants_json_roundtrip_is_byte_identical(matrix_files):
    a, _ = matrix_files
    r = run_cli("invariants", str(a), "--json")
    doc = json.loads(r.stdout)
    assert cli.render_json(doc) == r.stdout


def test_text_and_json_renderings_agree(matrix_files):
    from ckinv.groups import FgAbGroup
    a, _ = matrix_files
    text = run_cli("invariants", str(a)).stdout
    doc = json.loads(run_cli("invariants", str(a), "--json").stdout)
    for name in ("K0", "K1", "ExtW1", "ExtW0", "ExtS1", "ExtS0",
                 "pi1_aut", "pi2_aut", "pi1_aut_stable", "pi2_aut_stable"):
        rendered = str(FgAbGroup.from_json(doc[name]))
        assert f"{name}: {rendered}" in text


def test_compare_command(matrix_files):
    a, b = matrix_files
    r = run_cli("compare", str(a), str(b))
    assert r.returncode == 0
    assert "isomorphic: false" in r.stdout
    assert "stably_isomorphic: true" in r.stdout

    r = run_cli("compare", str(a), str(a))
    assert r.returncode == 0
    assert "isomorphic: true" in r.stdout

    r = run_cli("compare", str(a), str(b), "--json")
    doc = json.loads(r.stdout)
    assert doc["isomorphic"] is False
    assert doc["stably_isomorphic"] is True
    assert doc["invariants"]["K0"]["equal"] is True
    assert doc["invariants"]["ExtS1"]["equal"] is False
    assert cli.render_json(doc) == r.stdout


def test_exactseq_command(matrix_files, tmp_path):
    a, _ = matrix_files
    r = run_cli("exactseq", str(a))
    assert r.returncode == 0
    for label in ("j injective", "exact at Z", "q surjective"):
        assert f"{label}: exact" in r.stdout

    two = tmp_path / "o2.txt"
    two.write_text("2\n1 1\n1 1\n")
    assert run_cli("exactseq", str(two)).returncode == 0

    rnd = tmp_path / "r6.txt"
    gen = run_cli("gen", "random", "6", "--density", "0.4", "--seed", "11",
                  "--out", str(rnd))
    assert gen.returncode == 0
    assert run_cli("exactseq", str(rnd)).returncode == 0


def test_realize_command(tmp_path):
    out = tmp_path / "m.txt"
    r = run_cli("realize", "--rank", "0", "--torsion", "2",
                "--out", str(out))
    assert r.returncode == 0
    assert "Z/2" in r.stdout
    assert run_cli("validate", str(out)).returncode == 0
    doc = json.loads(run_cli("invariants", str(out), "--json").stdout)
    assert doc["K0"] == {"rank": 0, "torsion": [2]}

    r = run_cli("realize", "--rank", "2")
    assert r.returncode == 0
    m = cli.parse_matrix_text(r.stdout)
    assert [len(row) for row in m] == [5] * 5

    r = run_cli("realize", "--rank", "0", "--torsion", "2,4",
                "--out", str(out))
    assert r.returncode == 0
    doc = json.loads(run_cli("invariants", str(out), "--json").stdout)
    assert doc["K0"] == {"rank": 0, "torsion": [2, 4]}
    assert doc["n"] == 11


def test_gen_command(tmp_path):
    out = tmp_path / "g.txt"
    assert run_cli("gen", "cuntz", "5", "--out", str(out)).returncode == 0
    assert cli.parse_matrix_text(out.read_text()) == [[1] * 5] * 5

    assert run_cli("gen", "amplified", "3", "2",
                   "--out", str(out)).returncode == 0
    m = cli.parse_matrix_text(out.read_text())
    assert [len(row) for row in m] == [6] * 6
    assert [row[3:] for row in m[:3]] == [[1] * 3] * 3

    r1 = run_cli("gen", "random", "6", "--density", "0.4", "--seed", "5")
    r2 = run_cli("gen", "random", "6", "--density", "0.4", "--seed", "5")
    assert r1.returncode == 0 and r1.stdout == r2.stdout


@pytest.mark.parametrize("command", [("gen", "cuntz", "3"),
                                     ("realize", "--rank", "1")])
@pytest.mark.parametrize("out", ["missing_dir/m.txt", "."])
def test_an_unwritable_out_exits_1_in_one_line(tmp_path, command, out):
    # a file in a missing directory, or a directory: an error line naming
    # the path ends in exit 1, not a traceback
    path = str(tmp_path / out)
    r = run_cli(*command, "--out", path)
    assert r.returncode == cli.EXIT_USAGE
    assert r.stderr.startswith(f"error: cannot write {path}: ")
    assert r.stderr.count("\n") == 1 and "Traceback" not in r.stderr


def test_exit_code_contract(matrix_files, tmp_path):
    a, b = matrix_files
    # 0: success regardless of verdict
    assert run_cli("compare", str(a), str(b)).returncode == 0
    # 1: usage errors
    assert run_cli("no-such-command").returncode == 1
    assert run_cli("gen", "random", "5").returncode == 1  # seed required
    assert run_cli("realize", "--torsion", "1").returncode == 1
    assert run_cli().returncode == 1
    # 2: invalid matrix input (parse or validation)
    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1 1\n")
    assert run_cli("invariants", str(bad)).returncode == 2
    assert run_cli("invariants", str(tmp_path / "absent.txt")) \
        .returncode == 2
    binary = tmp_path / "bin.dat"
    binary.write_bytes(bytes([0xff, 0xfe, 0x00, 0x81]))
    assert run_cli("validate", str(binary)).returncode == 2
    ident = tmp_path / "id.txt"
    ident.write_text("2\n1 0\n0 1\n")
    assert run_cli("compare", str(a), str(ident)).returncode == 2


def test_selftest_command():
    r = run_cli("selftest")
    assert r.returncode == 0
    assert "all fixtures pass" in r.stdout
    assert r.stdout.count("PASS") >= 10


def test_selftest_checks_name_their_first_failure(monkeypatch):
    # a check that cannot fail shows nothing: each one reports a wrong
    # report, pair or matrix, and the runner prints FAIL with the reason
    corpus = selftest.make_corpus(3)
    good = [ck.invariants(a) for a in corpus]
    bad = good[:1] + [replace_fields(r, pi2_aut=r.pi2_aut.direct_sum(Z))
                      for r in good[1:]]
    assert selftest.check_torsion_splitting(good) is None
    assert selftest.check_torsion_splitting(bad).startswith("report 1:")
    bad = [replace_fields(r, pi2_aut_stable=r.pi1_aut_stable.direct_sum(Z))
           for r in good]
    assert selftest.check_stable_equality(bad).startswith("report 0:")
    bad = [replace_fields(r, pi1_aut_stable=r.pi1_aut_stable.direct_sum(Z),
                          pi2_aut_stable=r.pi1_aut_stable.direct_sum(Z))
           for r in good]  # equal, and not the group of the weak data
    assert selftest.check_stable_equality(bad).startswith("report 0:")
    bad = [replace_fields(r, ext_s0=r.ext_s0.direct_sum(Z)) for r in good]
    assert selftest.check_rank_identities(bad).startswith("report 0:")
    bad = [replace_fields(r, ext_s1=r.ext_s1.direct_sum(Z)) for r in good]
    assert selftest.check_unit_class_cross_check(corpus, bad) \
        .startswith("matrix 0:")
    a, b = ck.gen_cuntz(3), ck.gen_cuntz(4)
    assert selftest.check_isomorphism_coherence([(a, a), (a, b)]) is None
    assert selftest.check_isomorphism_coherence([(a, b)]) == \
        "0 isomorphic pairs, not 1 or more"
    assert selftest.check_smith_properties([[[2, 0], [0, 3]]]) is None
    assert selftest.check_five_term(corpus) is None
    with monkeypatch.context() as m:  # the node at Z fails to hold
        order = ck.order_from_quotient
        m.setattr(ck, "order_from_quotient", lambda g, q: order(g, q) + 1)
        assert selftest.check_five_term(corpus).startswith(
            "matrix 0: the coordinate sums")

    def broken(*args):
        raise ArithmeticError("a library fault")

    monkeypatch.setattr(selftest, "check_stable_equality", lambda r: "why")
    monkeypatch.setattr(selftest, "check_smith_properties", broken)
    lines = []
    assert not selftest.run_selftest(lines.append)
    assert len(lines) == 13 and lines[-1] == "selftest FAILED"
    assert [line.split()[0] for line in lines].count("FAIL") == 2
    assert lines[6].startswith("FAIL  stable-equality (")
    assert lines[6].endswith("): why")
    assert lines[11].endswith("): ArithmeticError: a library fault")


def test_bad_tokens_and_oversized_entries_exit_2(tmp_path):
    cases = {"big.json": '{"matrix": [[99999999999999999999999]]}',
             "big.txt": "1\n99999999999999999999999\n",
             "underscore.txt": "2\n0_1 1\n1 1\n",
             "arabic.txt": "2\n\u0661 1\n1 1\n"}
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        r = run_cli("invariants", str(path))
        assert r.returncode == 2, name
        assert r.stderr.startswith("rejected:"), name
        assert "Traceback" not in r.stderr


def test_exactseq_refuses_a_matrix_past_the_cap(tmp_path):
    m = tmp_path / "m.txt"
    side = str(ck.MAX_SEQUENCE_SIDE + 1)
    assert run_cli("gen", "random", side, "--seed", "1",
                   "--out", str(m)).returncode == 0
    r = run_cli("exactseq", str(m))
    assert r.returncode == 1
    assert r.stderr.startswith("error:") and "at most" in r.stderr
    assert "Traceback" not in r.stderr


def test_invariants_and_compare_refuse_a_matrix_past_the_cap(tmp_path):
    m = tmp_path / "m.txt"
    side = str(ck.MAX_INVARIANTS_SIDE + 1)
    assert run_cli("gen", "random", side, "--seed", "1",
                   "--out", str(m)).returncode == 0
    for args in (["invariants", str(m)], ["compare", str(m), str(m)]):
        r = run_cli(*args)
        assert r.returncode == 1
        assert r.stderr.startswith("error:") and "at most" in r.stderr
        assert "Traceback" not in r.stderr
    for command in ("invariants", "compare"):
        help_text = " ".join(run_cli(command, "--help").stdout.split())
        assert f"side at most {ck.MAX_INVARIANTS_SIDE}" in help_text


def test_gen_refuses_a_side_past_the_cap():
    for args in (["cuntz", str(ck.MAX_SIDE + 1)],
                 ["amplified", "2", str(ck.MAX_SIDE // 2 + 1)],
                 ["random", str(ck.MAX_SIDE + 1), "--seed", "1"]):
        r = run_cli("gen", *args)
        assert r.returncode == 1
        assert r.stderr.startswith("error:") and "at most" in r.stderr
        assert r.stdout == "" and "Traceback" not in r.stderr


def test_gen_refuses_a_density_that_expects_too_many_draws():
    # these searched without end: nearly every draw was the bare cycle
    for n, density in (("2", "1e-9"), ("50", "1e-12")):
        r = subprocess.run([sys.executable, "-m", "ckinv.cli", "gen",
                            "random", n, "--density", density, "--seed", "1"],
                           capture_output=True, text=True, timeout=60)
        assert r.returncode == 1 and r.stdout == ""
        assert r.stderr.startswith("error:") and "draws" in r.stderr
        assert "Traceback" not in r.stderr


@pytest.mark.parametrize("token", ["1_0", "+4", "\u0663", "9" * 5000])
def test_gen_integers_follow_the_grammar(token, capsys):
    # int() alone takes the first three; gen cuntz 1_0 used to write a
    # 10 x 10 matrix
    for args in (["cuntz", token], ["amplified", "2", token],
                 ["random", token, "--seed", "1"],
                 ["random", "3", "--seed", token]):
        with pytest.raises(SystemExit) as stop:
            cli.main(["gen", *args])
        assert stop.value.code == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("error:")
        assert "not an integer" in err and len(err) < 500


def test_realize_refuses_an_oversized_target():
    # a side of about 10**6 would take terabytes; it is refused up front
    r = run_cli("realize", "--torsion", "1000000")
    assert r.returncode == 1
    assert "at most" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("token", ["1_0", " 3", "+4", "\u0663", "9" * 5000])
def test_realize_integers_follow_the_grammar(token, capsys):
    # int() alone takes the first four; --torsion 1_0 used to realize Z/10
    for args in (["--torsion", token], ["--torsion", f"2,{token}"],
                 ["--rank", token]):
        with pytest.raises(SystemExit) as stop:
            cli.main(["realize", *args])
        assert stop.value.code == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("error:")
        assert "not an integer" in err
        assert "Traceback" not in err and len(err) < 500


def test_command_line_integers_take_leading_zeros(capsys):
    # a zero-padded token reads as in a matrix file: 19 significant
    # digits, not 19 characters, bound both
    padded = "0" * 21 + "1"
    assert cli.parse_matrix_text(f"1\n{padded}\n") == [[1]]
    assert cli._int_argument(padded) == 1
    assert cli._int_argument("-" + "0" * 30 + "9" * 19) == -(10 ** 19 - 1)
    assert cli.main(["realize", "--rank", "1", "--torsion", "2"]) == 0
    want = capsys.readouterr().out
    assert cli.main(["realize", "--rank", padded, "--torsion", "2"]) == 0
    assert capsys.readouterr().out == want
    with pytest.raises(SystemExit):
        cli.main(["realize", "--rank", "1" + "0" * 19])
    assert "not an integer" in capsys.readouterr().err


def test_gen_density_follows_a_decimal_grammar(capsys):
    # float() alone takes every refused token; --density \u0660.\u0665
    # used to write a density-0.5 matrix
    for token in ("0.1_5", "+0.3", "\u0660.\u0665", "0x1p-1", "nan",
                  "1e+0", "0.5 "):
        with pytest.raises(SystemExit) as stop:
            cli.main(["gen", "random", "3", "--density", token,
                      "--seed", "1"])
        assert stop.value.code == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1].startswith("error:")
        assert "not a decimal" in err and "Traceback" not in err
    outs = set()
    for token in ("0.5", ".5", "0.50", "5e-1", "50E-2", "0.05e1"):
        assert cli.main(["gen", "random", "4", "--density", token,
                         "--seed", "3"]) == 0
        outs.add(capsys.readouterr().out)
    assert len(outs) == 1


def test_compare_runs_the_eliminations_of_its_deciders_alone(
        matrix_files, monkeypatch, capsys):
    # one Smith diagonal each of I - A and I - A^hat of both matrices, and
    # nothing more, counting all three kernels
    calls = []
    for name in ("smith_diagonal", "smith_normal_form",
                 "hermite_normal_form"):
        def counted(m, kernel=getattr(intmat, name), name=name):
            calls.append(name)
            return kernel(m)

        monkeypatch.setattr(intmat, name, counted)
    a, b = matrix_files
    for json_flag in ([], ["--json"]):
        calls.clear()
        assert cli.main(["compare", str(a), str(b), *json_flag]) == 0
        assert calls == ["smith_diagonal"] * 4
    assert capsys.readouterr().out.splitlines()[:2] == \
        ["isomorphic: false", "stably_isomorphic: true"]


def _compare_from_reports(a, b, as_json: bool) -> str:
    """compare's output built from two full reports and the deciders: the
    oracle for the groups that compare reads off the deciders."""
    a, b = ck.validate(a.rows), ck.validate(b.rows)
    ra, rb = ck.invariants(a), ck.invariants(b)
    iso, stable = ck.is_isomorphic_ck(a, b), ck.is_stably_isomorphic_ck(a, b)
    table = [(name, getattr(ra, f), getattr(rb, f)) for name, f in (
        ("K0", "k0"), ("ExtS1", "ext_s1"), ("pi1_aut", "pi1_aut"),
        ("pi2_aut", "pi2_aut"))]
    if as_json:
        return cli.render_json({
            "isomorphic": iso, "stably_isomorphic": stable,
            "invariants": {name: {"a": ga.to_json(), "b": gb.to_json(),
                                  "equal": ga == gb}
                           for name, ga, gb in table}})
    width = max(len(str(g)) for _, ga, gb in table for g in (ga, gb)) + 2
    return "".join(
        [f"isomorphic: {str(iso).lower()}\n",
         f"stably_isomorphic: {str(stable).lower()}\n"]
        + [f"{name:<16}{str(ga):<{width}}{str(gb):<{width}}"
           f"{'equal' if ga == gb else 'DIFFER'}\n"
           for name, ga, gb in table])


def test_compare_prints_what_two_reports_give(tmp_path, capsys):
    # consecutive corpus matrices, each matrix against itself and against
    # an out-split of it (isomorphic), and one pair of side 150
    corpus = selftest.make_corpus(40)
    rng = random.Random(5)
    pairs = [*zip(corpus, corpus[1:]), *((a, a) for a in corpus[::5]),
             *((a, out_split(a, a.rows.index(max(a.rows, key=sum)), rng))
               for a in corpus[::3])]
    pairs.append((ck.gen_random_irreducible(150, 0.3, 7),
                  ck.gen_random_irreducible(150, 0.3, 8)))
    seen = set()
    for a, b in pairs:
        paths = []
        for name, m in (("a.txt", a), ("b.txt", b)):
            (tmp_path / name).write_text(cli.format_matrix_text(m.rows))
            paths.append(str(tmp_path / name))
        for json_flag in (False, True):
            assert cli.main(["compare", *paths]
                            + ["--json"] * json_flag) == 0
            out = capsys.readouterr().out
            assert out == _compare_from_reports(a, b, json_flag)
            seen.add(out.split("\n", 2)[:2] == ["isomorphic: true",
                                                 "stably_isomorphic: true"])
    assert seen == {True, False}


# -- input fuzzing ----------------------------------------------------------

def _fuzz_rows(rng, n):
    # a cycle through every vertex plus a loop: irreducible, and not a
    # permutation, before any mutation
    rows = [[int(rng.random() < 0.3) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n] = 1
    rows[0][0] = 1
    return rows


def _fuzz_text(rows):
    return f"{len(rows)}\n" + "".join(
        " ".join(map(str, r)) + "\n" for r in rows)


def _fuzz_json(rows):
    return json.dumps({"matrix": rows})


_ODD_TOKENS = ["true", "false", "1.0", "1e3", "NaN", "nan", "Infinity",
               "-Infinity", "null", "\"1\"", "[1]", "9" * 30, "-" + "9" * 25,
               str(2 ** 63), str(-2 ** 63), "\u0661", "\uff11", "\ufeff1",
               "\u200b", "0x1", "1_0", "+1", "--1", "", "\u00e9"]


def _fuzz_input(rng) -> bytes:
    """One generated matrix file: well-formed, or broken in a random way."""
    rows = _fuzz_rows(rng, rng.randint(1, 8))
    text = rng.choice([_fuzz_text, _fuzz_json])(rows)
    kind = rng.choice(["valid"] * 4 + ["truncated", "ragged", "huge",
                                       "token", "unicode", "empty", "bytes"])
    if kind == "truncated":
        text = text[:rng.randrange(len(text))]
    elif kind == "ragged":
        rows[rng.randrange(len(rows))].append(1)
        text = rng.choice([_fuzz_text, _fuzz_json])(rows)
    elif kind == "huge":
        text = rng.choice([
            f"{10 ** rng.randint(3, 40)}\n1 1\n",
            "3\n" + " ".join(["1"] * 100_000) + "\n",
            '{"matrix": [[1' + "0" * rng.randint(18, 5000) + "]]}",
            '{"matrix": ' + "[" * 100_000 + "]" * 100_000 + "}",
            "1\n" + "9" * 10_000 + "\n",
            "#" * 100_000 + "\n2\n1 1\n1 1\n",
        ])
    elif kind == "token":
        token = rng.choice(_ODD_TOKENS)
        if text.startswith("{"):
            text = text.replace("1", token, 1).replace("0", token, 1)
        else:
            lines = text.split("\n")
            i = rng.randrange(len(lines))
            lines[i] = " ".join(token if rng.random() < 0.5 else t
                                for t in lines[i].split(" "))
            text = "\n".join(lines)
    elif kind == "unicode":
        chars = [chr(rng.choice([0x0, 0xa0, 0x85, 0x2028, 0x661, 0xff11,
                                 0x1f600, 0xfeff, 0x3000, 0xd7ff]))
                 for _ in range(rng.randint(1, 6))]
        at = rng.randrange(len(text) + 1)
        text = text[:at] + "".join(chars) + text[at:]
    elif kind == "empty":
        text = rng.choice(["", " ", "\n\n", "# only a comment\n", "{}",
                           '{"matrix": []}', '{"matrix": [[]]}', "0\n",
                           '{"matrix": null}', "[]", '{"matrix": [[], []]}'])
    data = text.encode("utf-8")
    if kind == "bytes":
        data = bytearray(data)
        for _ in range(rng.randint(1, 4)):
            data[rng.randrange(len(data))] = rng.randrange(256)
        data = bytes(data)
    return data


@pytest.mark.parametrize("command,fault", [
    ("exactseq", "witness"), ("invariants", "k0"), ("exactseq", "kernel"),
    ("invariants", "transpose"), ("invariants", "augmented"),
    ("invariants", "iota"), ("exactseq", "node-at-z")])
def test_a_failed_cross_check_exits_3_in_one_line(tmp_path, monkeypatch,
                                                  capsys, command, fault):
    # a library fault that an internal cross-check catches (the witness of
    # the five-term sequence, the Ker(I - A^hat) basis, the sequence's node
    # at Z, or one of the report's three: coker(I - A^t) = ExtW1, the
    # augmentation's kernel rank = that of ExtS0, coker([I - A^hat |
    # (I - A) e_1]) = ExtW1) raises VerificationError, which ends in exit
    # 3 and no traceback
    a = with_kernel(ck.gen_random_irreducible(12, 0.3, seed=7))
    path = tmp_path / "m.txt"
    path.write_text(cli.format_matrix_text(a.rows))
    if fault == "witness":
        hat_rows = ck._hat_rows
        monkeypatch.setattr(ck, "_hat_rows", lambda ia: [
            r[:-1] + [r[-1] + 1] for r in hat_rows(ia)])
    elif fault == "k0":  # the first cokernel, ExtW1's, gains a Z
        cokernel, calls = intmat.cokernel_invariants, []

        def skewed(m):
            calls.append(m)
            return cokernel(m).direct_sum(Z) if len(calls) == 1 \
                else cokernel(m)

        monkeypatch.setattr(intmat, "cokernel_invariants", skewed)
    elif fault == "node-at-z":  # the order of iota_1 is off by one
        order = ck.order_from_quotient
        monkeypatch.setattr(ck, "order_from_quotient",
                            lambda g, q: order(g, q) + 1)
    elif fault == "kernel":  # each Ker(I - A) basis vector listed twice
        hermite = intmat.hermite_normal_form
        monkeypatch.setattr(intmat, "hermite_normal_form", lambda m: (
            SimpleNamespace(kernel=2 * hermite(m).kernel)))
    else:  # the cross-check's own Smith diagonal loses a nonzero entry
        ia = ck._i_minus_rows(a)
        faulted = {"transpose": [list(r) for r in zip(*ia)],
                   "augmented": ck._augmented_rows(ia),
                   "iota": ck._iota_quotient_rows(ia)}[fault]
        diagonal = intmat.smith_diagonal

        def skewed(m):
            diag = list(diagonal(m))
            if [list(r) for r in m] == faulted:
                diag[diag.index(0) - 1 if 0 in diag else -1] = 0
            return tuple(diag)

        monkeypatch.setattr(intmat, "smith_diagonal", skewed)
    assert cli.main([command, str(path)]) == cli.EXIT_VERIFY
    err = capsys.readouterr().err
    assert err.startswith("verification failed:") and err.count("\n") == 1


def test_a_failed_realize_check_exits_3_in_one_line(monkeypatch, capsys):
    # RealizationError is a VerificationError, so realize_k0's own check
    # takes the same exit-3 path as the other cross-checks
    cokernel = intmat.cokernel_invariants
    monkeypatch.setattr(intmat, "cokernel_invariants",
                        lambda m: cokernel(m).direct_sum(Z))
    assert cli.main(["realize", "--rank", "1", "--torsion", "2,4"]) == \
        cli.EXIT_VERIFY
    err = capsys.readouterr().err
    assert err.startswith("verification failed:") and err.count("\n") == 1


def _fuzz_argv(rng, paths):
    command = rng.choice(["validate", "invariants", "compare"])
    argv = [command, *(str(rng.choice(paths))
                       for _ in range(2 if command == "compare" else 1))]
    if command != "validate" and rng.random() < 0.5:
        argv.append("--json")
    return argv


def test_fuzzed_matrix_files_end_in_an_exit_code(tmp_path, capsys):
    rng = random.Random(4242)
    paths = []
    for i in range(120):
        path = tmp_path / f"m{i}.{rng.choice(['txt', 'json'])}"
        path.write_bytes(_fuzz_input(rng))
        paths.append(path)
    codes = []
    for _ in range(200):
        codes.append(cli.main(_fuzz_argv(rng, paths)))
        capsys.readouterr()
    assert set(codes) <= {0, 1, 2}
    assert codes.count(0) >= 40 and codes.count(2) >= 80
    for _ in range(6):
        r = run_cli(*_fuzz_argv(rng, paths))
        assert r.returncode in (0, 1, 2)
        assert "Traceback" not in r.stderr


# -- import cost ------------------------------------------------------------

_NUMPY_FREE = """
import contextlib, io, json, sys
import ckinv.cli
outs = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ckinv.cli.main(argv)
    outs.append([code, buf.getvalue()])
print(json.dumps({"outs": outs, "numpy": "numpy" in sys.modules}))
"""


def test_commands_on_int_rows_never_import_numpy(matrix_files, tmp_path,
                                                 capsys):
    # validate, invariants, compare, exactseq, realize and gen run without
    # numpy, and print what they print in a process that has it loaded;
    # so does selftest
    a, _ = matrix_files
    b = tmp_path / "b.json"
    b.write_text('{"matrix": [[1, 1, 1], [1, 1, 0], [1, 1, 0]]}')
    c = tmp_path / "c.txt"  # Ker(I - A) = Z: every map of exactseq is used
    c.write_text(cli.format_matrix_text(
        [[1, 0, 0, 0, 0, 0, 1], [0, 1, 1, 1, 0, 0, 1], [0, 1, 1, 1, 0, 0, 1],
         [0, 1, 1, 1, 0, 0, 1], [1, 1, 1, 1, 0, 0, 1], [0, 0, 0, 0, 0, 1, 1],
         [0, 0, 0, 0, 1, 1, 1]]))
    commands = [["validate", str(a)], ["invariants", "--json", str(a)],
                ["compare", str(a), str(b)], ["exactseq", str(a)],
                ["exactseq", str(c)],
                ["realize", "--rank", "1", "--torsion", "4,6"],
                ["gen", "random", "7", "--density", "0.3", "--seed", "4"],
                ["selftest"]]
    r = subprocess.run([sys.executable, "-c", _NUMPY_FREE,
                        json.dumps(commands)], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["numpy"] is False
    *outs, (selftest_code, selftest) = doc["outs"]
    for argv, (code, out) in zip(commands, outs):
        assert code == cli.main(argv) == 0
        assert out == capsys.readouterr().out
    # selftest prints its timings, so its lines are read, not compared
    lines = selftest.splitlines()
    assert selftest_code == 0 and lines[-1] == "all fixtures pass"
    assert [line.split()[0] for line in lines[:-1]] == ["PASS"] * 12
    r = subprocess.run([sys.executable, "-c", "import sys, ckinv; "
                        "print('numpy' in sys.modules)"],
                       capture_output=True, text=True)
    assert r.stdout == "False\n"


def test_a_cli_process_imports_no_dataclasses_or_json():
    # under -S no site module preloads anything, so sys.modules holds what
    # import ckinv.cli needs; json is imported only to read or write JSON
    src = str(Path(cli.__file__).parents[1])
    r = subprocess.run(
        [sys.executable, "-S", "-c", "import sys; sys.path.insert(0, sys.argv"
         "[1]); import ckinv.cli; print(' '.join(sorted(sys.modules)))", src],
        capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    loaded = set(r.stdout.split())
    assert "ckinv.cli" in loaded
    assert not {"dataclasses", "inspect", "ast", "dis", "tokenize",
                "json"} & loaded
