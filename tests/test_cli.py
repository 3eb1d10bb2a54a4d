import json
import os
import stat
import subprocess
import sys

import pytest

from circdist import groupring
from circdist.cli import (MAX_EXPONENT_WEIGHT, MAX_TABLE_DEPTH, TableSpecError,
                          main, parse_support, parse_table)
from circdist.cyclotomic import PrecisionError, SubfieldError
from circdist.distributions import SolveError, divisor_closure
from circdist.groupring import eps_n


def run_cli(*argv):
    proc = subprocess.run([sys.executable, "-m", "circdist.cli", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_parse_support():
    assert parse_support("closure(12)") == divisor_closure([12])
    assert parse_support("closure(4, 15)") == (2, 3, 4, 5, 15)
    with pytest.raises(TableSpecError):
        parse_support("divisors(12)")
    with pytest.raises(TableSpecError):
        parse_support("closure(12) junk")


def test_parse_table_specs():
    S = divisor_closure([12])
    t = parse_table("pow(phi, one_plus_tau)", S)
    assert t.value(12) == eps_n(12)
    t2 = parse_table("mul(phi, delta(3))", S)
    assert t2.value(3) == -(parse_table("phi", S).value(3))
    t3 = parse_table("pow(phi, 2+1*s(5)@12)", S)
    assert t3.value(12) == parse_table("phi", S).value(12) ** 2 * __import__(
        "circdist").act(5, parse_table("phi", S).value(12))
    t4 = parse_table("conj(phi)", S)
    from circdist import act, tau
    assert t4.value(12) == act(tau(12), parse_table("phi", S).value(12))
    with pytest.raises(TableSpecError):
        parse_table("pow(phi, 2+s(5))", S)   # sigma without a base level
    with pytest.raises(TableSpecError):
        parse_table("pow(phi, 2+sx(5)@12)", S)   # a name other than s
    with pytest.raises(TableSpecError):
        parse_table("frob(phi)", S)


def test_exit_code_contract():
    code, out, _ = run_cli("verify", "--table", "phi", "--support", "closure(20)")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "circdist/1" and payload["passed"]

    code, out, _ = run_cli("strictness", "--table", "delta(3)",
                           "--support", "closure(15)")
    assert code == 1
    payload = json.loads(out)
    assert not payload["passed"]
    bad = [e for e in payload["entries"] if not e["pass"]]
    assert bad[0]["n"] == 3 and bad[0]["ell"] == 5 and "witness" in bad[0]

    code, _, err = run_cli("verify", "--table", "delta(2)",
                           "--support", "closure(15)")
    assert code == 2 and "odd prime" in err

    code, _, err = run_cli("verify", "--table", "phi", "--support", "closure(997)")
    assert code == 2 and "CIRCDIST_MAX_PHI" in err


def test_max_phi_override():
    env = dict(os.environ, CIRCDIST_MAX_PHI="3")
    proc = subprocess.run([sys.executable, "-m", "circdist.cli", "verify",
                           "--table", "phi", "--support", "closure(12)"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2 and "CIRCDIST_MAX_PHI" in proc.stderr
    env = dict(os.environ, CIRCDIST_MAX_PHI="64")
    proc = subprocess.run([sys.executable, "-m", "circdist.cli", "verify",
                           "--table", "phi", "--support", "closure(12)"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0


def test_annihilator_and_idempotent_commands():
    code, out, _ = run_cli("annihilator", "--n", "12", "--oracle")
    assert code == 0
    payload = json.loads(out)
    assert payload["equal"] and payload["formula"]["hnf"] == [[1, 1]]
    code, out, _ = run_cli("idempotent", "--n", "9")
    assert code == 0
    assert json.loads(out)["idempotent"]["coeffs"] == {"1": "1"}


def test_torsion_and_valuation_commands():
    code, out, _ = run_cli("torsion", "--table", "delta(3,5)",
                           "--support", "closure(45,12)")
    assert code == 0
    payload = json.loads(out)
    assert payload["classification"] == "delta" and payload["pi"] == [3, 5]

    code, out, _ = run_cli("valuation", "--table", "pow(phi, 3)",
                           "--support", "closure(9,8,25)")
    assert code == 0
    payload = json.loads(out)
    consts = [e for e in payload["entries"] if e["check"] == "constancy"]
    assert consts[0]["value"] == 3


def test_euler_and_ncnd_commands():
    code, out, _ = run_cli("euler", "--table", "phi", "--support",
                           "closure(21)", "--m", "3", "--r", "7")
    assert code == 0 and json.loads(out)["passed"]
    code, out, _ = run_cli("ncnd", "--p", "3", "--q", "5", "--a-max", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["family"]["passed"] and payload["sections"]["passed"]


def test_kappa_and_boundedness_commands():
    args = ["--table", "pow(phi, one_plus_tau)", "--support", "closure(24)",
            "--m", "3", "--p", "2", "--depth", "3", "--k", "1"]
    code, out, _ = run_cli("kappa", *args)
    assert code == 0
    payload = json.loads(out)
    assert payload["entries"][-1]["digits"]["1"] == [1, 3]
    code, out, _ = run_cli("boundedness", *args)
    assert code == 0
    assert json.loads(out)["evidence_only"] is True


def test_atomic_out_file(tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli("verify", "--table", "phi", "--support",
                           "closure(12)", "--out", str(target))
    assert code == 0 and out == ""
    payload = json.loads(target.read_text())
    assert payload["passed"]
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".circdist-")]
    assert not leftovers


def test_unwritable_output_is_a_usage_error(tmp_path):
    code, _, err = run_cli("verify", "--table", "phi", "--support",
                           "closure(12)", "--out", str(tmp_path / "nodir" / "x.json"))
    assert code == 2 and "cannot write report" in err


def test_reports_are_deterministic():
    configs = [
        ("verify", "--table", "phi", "--support", "closure(20)"),
        ("strictness", "--table", "delta(3)", "--support", "closure(15)"),
        ("annihilator", "--n", "15", "--oracle"),
        ("torsion", "--table", "delta(3)", "--support", "closure(9)"),
    ]
    for cfg in configs:
        _, out1, _ = run_cli(*cfg, "--seed", "7")
        _, out2, _ = run_cli(*cfg, "--seed", "7")
        assert out1 == out2


def test_text_format():
    code, out, _ = run_cli("idempotent", "--n", "12", "--format", "text")
    assert code == 0
    assert out.startswith("[idempotent]")


def test_deeply_nested_table_spec_is_a_usage_error():
    # 1,200 levels used to end in RecursionError, a traceback and exit 1
    spec = "conj(" * 1200 + "phi" + ")" * 1200
    code, out, err = run_cli("verify", "--table", spec, "--support", "closure(6)")
    assert code == 2 and out == ""
    assert err.count("error:") == 1 and "Traceback" not in err
    # as deep as the cap allows still parses
    spec = "conj(" * MAX_TABLE_DEPTH + "phi" + ")" * MAX_TABLE_DEPTH
    assert parse_table(spec, divisor_closure([6])).support == divisor_closure([6])


def test_exponent_weight_cap(monkeypatch):
    # pow multiplies by the sum of the tower's |coefficients|, mul adds and
    # conj keeps; each sub-spec is weighed before any table is built
    S = divisor_closure([6])
    cap = MAX_EXPONENT_WEIGHT
    built = []
    monkeypatch.setattr("circdist.cli.power_by_tower",
                        lambda *args: built.append(args) or args[0])
    for spec in ["pow(phi, %d)" % cap, "pow(phi, %d-1)" % (cap - 1),
                 "pow(pow(phi, one_plus_tau), %d)" % (cap // 2),
                 "conj(pow(phi, -%d))" % cap, "pow(pow(phi, %d), 0)" % cap,
                 "mul(pow(phi, %d), delta(3))" % (cap - 1)]:
        parse_table(spec, S)
    for spec in ["pow(phi, %d)" % (cap + 1), "pow(phi, %d-2)" % (cap - 1),
                 "pow(pow(phi, one_minus_tau), %d)" % (cap // 2 + 1),
                 "pow(pow(phi, %d), 0)" % (cap + 1),
                 "mul(pow(phi, %d), phi)" % cap,
                 "mul(pow(phi, %d), pow(phi, 2))" % (cap - 1)]:
        count = len(built)
        with pytest.raises(TableSpecError, match="exponent weight"):
            parse_table(spec, S)
        assert len(built) == count, spec


@pytest.mark.parametrize("command", ["kappa", "boundedness"])
@pytest.mark.parametrize("depth", ["0", "-1"])
def test_depth_below_one_is_a_usage_error(command, depth, capsys):
    code = main([command, "--table", "pow(phi, one_plus_tau)", "--support",
                 "closure(24)", "--m", "3", "--p", "2", "--depth", depth])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "depth" in captured.err


@pytest.mark.parametrize("argv,message", [
    # a KeyError's str() quoted its message
    (["kappa", "--table", "phi", "--support", "closure(24)", "--m", "3", "--p", "2",
      "--depth", "5"], "level 48 is not in the support"),
    # the message said "depth"
    (["ncnd", "--p", "3", "--q", "5", "--a-max", "2"], "a_max must be at least 3"),
])
def test_usage_error_line(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: %s\n" % message


# the ten README commands, none of which loads numpy or mpmath:
# (argv, exit code)
EXACT_COMMANDS = (
    (["verify", "--table", "phi", "--support", "closure(60)"], 0),
    (["strictness", "--table", "delta(3)", "--support", "closure(15)"], 1),
    (["idempotent", "--n", "24"], 0),
    (["annihilator", "--n", "12", "--oracle"], 0),
    (["ncnd", "--p", "3", "--q", "5", "--a-max", "3"], 0),
    (["euler", "--table", "phi", "--support", "closure(21)", "--m", "3",
      "--r", "7"], 0),
    (["torsion", "--table", "delta(3,5)", "--support", "closure(45,12)"], 0),
    (["valuation", "--table", "pow(phi, 3)", "--support", "closure(9,8,25)"], 0),
    (["kappa", "--table", "pow(phi, one_plus_tau)", "--support", "closure(96)",
      "--m", "3", "--p", "2", "--depth", "5", "--k", "1,2,3"], 0),
    (["boundedness", "--table", "pow(phi, one_plus_tau)", "--support",
      "closure(96)", "--m", "3", "--p", "2", "--depth", "5", "--k", "1,2,3"], 0),
)


def test_cli_import_leaves_numpy_and_mpmath_unloaded():
    # the library imports neither, so no one-shot command pays for them
    loaded = "sorted(m for m in ('numpy', 'mpmath') if m in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, circdist.cli; print(%s)" % loaded],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # each README command, run in a fresh interpreter, loads neither
    script = ("import json, sys; from circdist.cli import main; "
              "code = main(json.loads(sys.argv[1])); "
              "sys.stderr.write('\\n%%d %%r' %% (code, %s))" % loaded)
    for argv, code in EXACT_COMMANDS:
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(argv)],
                              capture_output=True, text=True)
        assert proc.stderr.splitlines()[-1] == "%d []" % code, (argv, proc.stderr)


@pytest.mark.parametrize("command", ["kappa", "boundedness"])
@pytest.mark.parametrize("p", ["0", "1", "4"])
def test_p_not_prime_is_a_usage_error(command, p):
    # --p 1 used to spin in decomposition_group; each now exits at once
    proc = subprocess.run(
        [sys.executable, "-m", "circdist.cli", command, "--table",
         "pow(phi, one_plus_tau)", "--support", "closure(3)", "--m", "3",
         "--p", p, "--depth", "1"],
        capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2 and "not a prime" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("exc,code", [
    (PrecisionError("could not separate embedding 5 from zero"), 3),
    (SubfieldError("element is not in the level-12 subfield"), 3),
    (ArithmeticError("modular inverse reconstruction failed"), 3),
    (SolveError("no exponent found at level 12"), 2),
])
def test_internal_failures_have_their_own_exit_code(exc, code, monkeypatch, capsys):
    def fail(n):
        raise exc

    monkeypatch.setattr(groupring, "idempotent_e_n", fail)
    assert main(["idempotent", "--n", "12"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and str(exc) in captured.err


@pytest.mark.parametrize("argv", [
    ["verify", "--table", "phi", "--support", "closure(1000000000000)"],
    ["idempotent", "--n", "2000003"],
    ["annihilator", "--n", "97"],
    ["annihilator", "--n", str(10 ** 40)],
    ["ncnd", "--p", "3", "--q", "7", "--a-max", "3"],
    ["ncnd", "--p", "3", "--q", "5", "--a-max", str(10 ** 9)],
])
def test_max_phi_caps_every_level(argv, capsys):
    # each is refused before any work: none factors a level above 2 cap^2
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "CIRCDIST_MAX_PHI" in captured.err


def test_max_phi_admits_the_readme_ncnd_levels(monkeypatch, capsys):
    # levels 15, 45, 135: phi(135) = 72 is the default cap
    monkeypatch.setenv("CIRCDIST_MAX_PHI", "71")
    assert main(["ncnd", "--p", "3", "--q", "5", "--a-max", "3"]) == 2
    assert "phi(135)" in capsys.readouterr().err
    monkeypatch.delenv("CIRCDIST_MAX_PHI")
    assert main(["ncnd", "--p", "3", "--q", "5", "--a-max", "3"]) == 0


def _cap_address_space():
    # runs in the child before exec: 1 GB of address space, so that an
    # input which allocates without bound fails fast instead of filling
    # the machine's memory
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("argv", [
    # r was trial-divided before the support was checked
    ["euler", "--table", "phi", "--support", "closure(21)", "--m", "3",
     "--r", "1000000000000000003"],
    # the divisors of m*r were listed from range(2, m*r + 1)
    ["euler", "--table", "phi", "--support", "closure(21)", "--m", "1000000000000",
     "--r", "1"],
    # every level m*p^n up to the depth was built before the first was read
    ["kappa", "--table", "phi", "--support", "closure(24)", "--m", "3", "--p", "2",
     "--depth", "100000000", "--k", "1"],
    ["boundedness", "--table", "phi", "--support", "closure(24)", "--m", "3",
     "--p", "2", "--depth", "100000000"],
    # the combination was built in the units of lcm(base, n)
    ["verify", "--table", "pow(phi, s(1)@100000000)", "--support", "closure(6)"],
    # the prime was trial-divided
    ["torsion", "--table", "delta(1000000000000000000000000000057)",
     "--support", "closure(3)"],
    # the power was computed, however large its exponent
    ["verify", "--table", "pow(phi, 1000000000000000000000)", "--support", "closure(60)"],
    ["verify", "--table", "pow(pow(phi, 4096), 4096)", "--support", "closure(60)"],
], ids=["euler-r", "euler-m", "kappa-depth", "boundedness-depth", "tower-base",
        "delta-prime", "tower-exponent", "nested-tower-exponent"])
def test_unbounded_inputs_are_refused_before_any_work(argv):
    proc = subprocess.run([sys.executable, "-m", "circdist.cli", *argv],
                          capture_output=True, text=True, timeout=20,
                          preexec_fn=_cap_address_space)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == "" and proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1, proc.stderr


def test_failed_out_leaves_no_file_behind(tmp_path):
    # the report is written, then the rename over a directory fails
    target = tmp_path / "D"
    target.mkdir()
    code, out, err = run_cli("idempotent", "--n", "12", "--out", str(target))
    assert code == 2 and out == "" and "cannot write report" in err
    assert os.listdir(tmp_path) == ["D"] and os.listdir(target) == []


@pytest.mark.parametrize("umask,mode", [("022", 0o644), ("077", 0o600)])
def test_out_report_gets_the_umask_mode(tmp_path, umask, mode):
    # created as open() creates a file: 0o666 less the umask, which the
    # child's shell sets, not this process
    target = tmp_path / "report.json"
    proc = subprocess.run(
        ["sh", "-c", 'umask %s && exec "$@"' % umask, "sh", sys.executable,
         "-m", "circdist.cli", "idempotent", "--n", "12", "--out", str(target)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert stat.S_IMODE(target.stat().st_mode) == mode
    assert json.loads(target.read_text())["n"] == 12
