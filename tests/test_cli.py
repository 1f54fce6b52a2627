import os
import subprocess
import sys

import pytest

from k3glue import cli
from k3glue.cli import main
from k3glue.latticeio import MAX_DIGITS

L1_TEXT = "rank 2\ngram\n6002 3001\n3001 -6002\nisometry\n1 1\n1 2\n"


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="ascii")
    return str(path)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "k3glue", "trace-set", "--max", "20"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "2 3 7 14 18\n"


def test_trace_set(capsys):
    code, out, _ = run(capsys, "trace-set", "--max", "200")
    assert code == 0
    assert out == (
        "2 3 7 14 18 23 34 38 47 62 66 79 83 98 102 119 123 142 146 167 194 198\n"
    )
    assert run(capsys, "trace-set", "--max", "2") == (0, "2\n", "")


def test_certify_machine_output(capsys):
    code, out, _ = run(capsys, "certify-k3", "--machine")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "format k3glue.certification.v1"
    assert lines[1] == "verdict pass"
    assert lines[2] == "checks 46"
    code2, out2, _ = run(capsys, "certify-k3", "--machine")
    assert out2 == out


def test_certify_text_output(capsys):
    code, out, _ = run(capsys, "certify-k3")
    assert code == 0
    assert out.rstrip().endswith("46 checks, 0 failed: PASS")


def test_gram_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "gram", "--which", "L1")
    assert code == 0
    assert out == L1_TEXT
    path = write(tmp_path, "l1.lat", out)
    code, info, _ = run(capsys, "lattice-info", path)
    assert code == 0
    lines = info.splitlines()
    assert "rank 2" in lines
    assert "even yes" in lines
    assert "det -45030005" in lines
    assert "signature (1,1)" in lines
    assert "glue_orders (3001,15005)" in lines
    assert "isometry_charpoly X^2-3X+1" in lines


def test_glue_recovers_the_certified_lattice(capsys, tmp_path):
    code, l1_text, _ = run(capsys, "gram", "--which", "L1")
    code2, l2_text, _ = run(capsys, "gram", "--which", "L2")
    code3, k3_text, _ = run(capsys, "gram", "--which", "K3")
    assert code == code2 == code3 == 0
    f1 = write(tmp_path, "l1.lat", l1_text)
    f2 = write(tmp_path, "l2.lat", l2_text)
    code, glued, _ = run(capsys, "glue", f1, f2)
    assert code == 0
    assert glued == k3_text


def test_glue_obstruction_exits_1(capsys, tmp_path):
    path = write(tmp_path, "a1.lat", "rank 1\ngram\n2\n")
    code, _, err = run(capsys, "glue", path, path)
    assert code == 1
    assert "no glue map" in err
    assert "form mismatch" in err


def test_glue_toy_pair(capsys, tmp_path):
    f1 = write(tmp_path, "p.lat", "rank 1\ngram\n2\n")
    f2 = write(tmp_path, "m.lat", "rank 1\ngram\n-2\n")
    code, out, _ = run(capsys, "glue", f1, f2)
    assert code == 0
    parsed_rank = out.splitlines()[0]
    assert parsed_rank == "rank 2"


def run_subprocess(*args, env=None):
    """`python -m k3glue` in a child with a 10 s limit."""
    return subprocess.run(
        [sys.executable, "-m", "k3glue", *args],
        capture_output=True,
        text=True,
        timeout=10,
        env=env,
    )


def diagonal_file(tmp_path, name, diag):
    rows = [" ".join(str(d if i == j else 0) for j in range(len(diag))) for i, d in enumerate(diag)]
    return write(tmp_path, name, f"rank {len(diag)}\ngram\n" + "\n".join(rows) + "\n")


def run_glue_subprocess(tmp_path, gram1, gram2):
    """`glue` on two diagonal lattices in a child with a 10 s limit."""
    return run_subprocess("glue", diagonal_file(tmp_path, "a.lat", gram1), diagonal_file(tmp_path, "b.lat", gram2))


def test_glue_at_a_prime_near_1e9_finishes(tmp_path):
    p = 10**9 + 7
    proc = run_glue_subprocess(tmp_path, [2 * p], [-2 * p])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("rank 2\ngram\n")


def test_glue_at_a_squared_prime_near_1e12_finishes(tmp_path):
    # glue order 2 p^2: factorizing it must not cost sqrt(p) rho steps
    p = 10**12 + 39
    proc = run_glue_subprocess(tmp_path, [2 * p * p], [-2 * p * p])
    assert proc.returncode == 0, proc.stderr


def test_glue_rank_two_part_at_a_prime_near_1e9_hits_the_search_bound(tmp_path):
    p = 10**9 + 7
    proc = run_glue_subprocess(tmp_path, [2 * p, 2 * p], [-2 * p, -2 * p])
    assert proc.returncode == 1
    assert "obstruction: search bound" in proc.stderr


def test_glue_whose_order_rho_cannot_split_hits_the_factorization_bound(tmp_path):
    p, q = 10**14 + 31, 3 * 10**14 + 89
    proc = run_glue_subprocess(tmp_path, [2 * p * q], [-2 * p * q])
    assert proc.returncode == 1
    assert "obstruction: factorization bound" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_entry_over_the_digit_limit_is_an_input_error(tmp_path):
    path = diagonal_file(tmp_path, "long.lat", ["2" + "0" * 5000])
    proc = run_subprocess("lattice-info", path)
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error: ")
    assert "Traceback" not in proc.stderr


def test_env_digits_over_the_digit_limit_is_an_input_error():
    env = dict(os.environ, K3GLUE_DIGITS="9" * 5000)
    proc = run_subprocess("table1", env=env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("input error: K3GLUE_DIGITS=")
    assert "Traceback" not in proc.stderr


def test_table1_digits_over_the_bound_exit_2_quickly():
    over = str(cli.MAX_TABLE1_DIGITS + 1)
    by_flag = run_subprocess("table1", "--digits", over)
    by_env = run_subprocess("table1", env=dict(os.environ, K3GLUE_DIGITS=over))
    for proc in (by_flag, by_env):
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr
    assert f"'{over}' is not an integer in [1, {cli.MAX_TABLE1_DIGITS}]" in by_flag.stderr
    assert by_env.stderr.startswith(f"input error: K3GLUE_DIGITS='{over}'")
    # the bound itself is accepted
    assert cli._int_in_range(1, cli.MAX_TABLE1_DIGITS)(str(cli.MAX_TABLE1_DIGITS)) == 300


def test_integer_options_over_the_digit_limit_name_the_bound(capsys, monkeypatch):
    # a token over the digit limit is named by the limit, not echoed
    huge = "9" * 5000
    for argv in (["table1", "--digits", huge], ["trace-set", "--max", huge],
                 ["cross-validate", "--max", huge]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"a value of more than {MAX_DIGITS} digits is not an integer" in err
        assert len(err.encode()) < 300
    monkeypatch.setenv("K3GLUE_DIGITS", huge)
    code, out, err = run(capsys, "table1")
    assert code == 2 and out == ""
    assert err.startswith(f"input error: K3GLUE_DIGITS=a value of more than {MAX_DIGITS} digits")
    assert len(err.encode()) < 300


def test_lattice_info_prints_a_determinant_over_the_digit_limit(tmp_path):
    # entries of 3001 digits parse, and det = 4 * 10^6000 must still print
    e = 2 * 10**3000
    proc = run_subprocess("lattice-info", diagonal_file(tmp_path, "wide.lat", [e, e]))
    assert proc.returncode == 0, proc.stderr
    assert "det 4" + "0" * 6000 in proc.stdout.splitlines()
    assert "Traceback" not in proc.stderr


def test_lattice_info_and_glue_never_factor_unequal_orders(capsys, tmp_path, monkeypatch):
    # 2pq with p, q near 10^14: factoring the glue order would not finish
    # in reasonable time, and neither command needs its prime support
    def refuse(n):
        raise AssertionError(f"factorize({n}) called")

    monkeypatch.setattr("k3glue.lattices.factorize", refuse)
    p, q = 10**14 + 31, 3 * 10**14 + 89
    big = write(tmp_path, "big.lat", f"rank 1\ngram\n{2 * p * q}\n")
    code, out, _ = run(capsys, "lattice-info", big)
    assert code == 0
    assert f"glue_orders ({2 * p * q})" in out
    small = write(tmp_path, "small.lat", "rank 1\ngram\n-2\n")
    code, _, err = run(capsys, "glue", big, small)
    assert code == 1
    assert "different orders" in err


def test_twist(capsys, tmp_path):
    path = write(tmp_path, "l1.lat", L1_TEXT)
    code, out, _ = run(capsys, "twist", path, "--poly", "3")
    assert code == 0
    assert out == "rank 2\ngram\n18006 9003\n9003 -18006\nisometry\n1 1\n1 2\n"
    code, _, err = run(capsys, "twist", path, "--poly", "0,1")
    assert code == 1
    assert "self-adjoint" in err
    bare = write(tmp_path, "bare.lat", "rank 1\ngram\n2\n")
    code, _, err = run(capsys, "twist", bare, "--poly", "3")
    assert code == 2
    assert "isometry" in err


def test_twist_poly_of_degree_at_least_the_rank_is_an_input_error(capsys, tmp_path):
    path = write(tmp_path, "l1.lat", L1_TEXT)
    code, out, err = run(capsys, "twist", path, "--poly", "1,0,1")
    assert code == 2
    assert out == ""
    assert err == "input error: --poly has degree 2, at least the rank 2\n"
    # trailing zero coefficients do not raise the degree
    code, out, _ = run(capsys, "twist", path, "--poly", "3,0,0")
    assert code == 0
    assert out.startswith("rank 2\ngram\n18006 9003\n")


def test_twist_poly_coefficient_over_the_digit_limit_exits_2(capsys):
    # the coefficient parser bounds the digits itself, with its own message,
    # instead of echoing the token through argparse's generic error
    with pytest.raises(SystemExit) as exc:
        main(["twist", "x.lat", "--poly", "1," + "9" * 5000])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"a coefficient has more than {MAX_DIGITS} digits" in err
    assert "9" * 100 not in err
    # the limit itself parses
    assert cli._int_list("1,-" + "9" * MAX_DIGITS) == [1, 1 - 10**MAX_DIGITS]


def test_table1_output(capsys):
    code, out, _ = run(capsys, "table1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "digits 5"
    assert lines[1] == "label 1 sign - value -0.11372"
    assert lines[-1] == "positive_labels 7"
    assert sum(1 for x in lines if x.startswith("label ")) == 10
    code, out, _ = run(capsys, "table1", "--digits", "7")
    assert out.splitlines()[1] == "label 1 sign - value -0.1137230"


def test_table1_env_digits(capsys, monkeypatch):
    monkeypatch.setenv("K3GLUE_DIGITS", "6")
    code, out, _ = run(capsys, "table1")
    assert code == 0
    assert out.splitlines()[0] == "digits 6"
    # '\u00b2' passes str.isdigit() but not int()
    for raw in ("zero", "\u00b2", "0", "x"):
        monkeypatch.setenv("K3GLUE_DIGITS", raw)
        code, _, err = run(capsys, "table1")
        assert code == 2
        assert err.startswith("input error: K3GLUE_DIGITS=")
    # an explicit flag wins over the environment
    monkeypatch.setenv("K3GLUE_DIGITS", "9")
    code, out, _ = run(capsys, "table1", "--digits", "4")
    assert out.splitlines()[0] == "digits 4"


def test_cross_validate(capsys):
    code, out, _ = run(capsys, "cross-validate", "--max", "30")
    assert code == 0
    assert out.endswith("mismatches 0\n")
    assert "tau=11 closed_form=no routes=l2 witness=- note=necessary passed, no witness" in out


def test_bad_inputs_exit_2(capsys, tmp_path):
    asym = write(tmp_path, "asym.lat", "rank 2\ngram\n0 1\n2 0\n")
    code, _, err = run(capsys, "lattice-info", asym)
    assert code == 2
    assert "input error" in err
    code, _, err = run(capsys, "lattice-info", str(tmp_path / "missing.lat"))
    assert code == 2


def test_bad_flags_exit_2(capsys, monkeypatch):
    # argparse exits through SystemExit with code 2, before any handler:
    # a --max below cross-validate's minimum must not reach certify()
    monkeypatch.setattr(cli, "certify", None)
    for argv in (
        ["no-such-command"],
        ["trace-set"],
        ["trace-set", "--max", "-5"],
        ["trace-set", "--max", "1"],
        ["cross-validate", "--max", "2"],
        ["table1", "--digits", "0"],
        ["table1", "--digits", "\u00b2"],
        ["twist", "x.lat", "--poly", "a,b"],
        ["twist", "x.lat", "--poly", "\u00b2"],
        ["gram", "--which", "L9"],
        [],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    # '\u00b2' passes isdigit() but is not an ASCII integer: the coefficient
    # parser rejects it with its own message
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["twist", "x.lat", "--poly", "1,\u00b2"])
    assert "'\u00b2' is not an integer" in capsys.readouterr().err
