import json
from fractions import Fraction

import mpmath as mp
import pytest

from mockmod.cli import main
from mockmod.exactq import eta_expansion, partition_series
from mockmod.special import UPPER_GAMMA_RTOL
from test_special import mp_e2, mp_eta, mp_theta


def test_verify_theta_passes(capsys):
    assert main(["verify", "theta"]) == 0
    out = capsys.readouterr().out
    assert "checks passed" in out
    assert "theta.elliptic" in out


def test_verify_exact_passes(capsys):
    assert main(["verify", "exact"]) == 0
    out = capsys.readouterr().out
    assert "6/6 checks passed" in out


def test_verify_unknown_checks_filter(capsys):
    assert main(["verify", "all", "--checks", "no-such-check"]) == 2
    assert "no checks selected" in capsys.readouterr().err


def test_verify_bad_group_exits_with_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "bogus"])
    assert exc.value.code == 2


def test_verify_tol_tightening_flips_to_fail(capsys):
    # default appell.modular tolerance is 1e-7; demanding 1e-16 must fail
    code = main(["verify", "appell", "--checks", "modular",
                 "--tol", "1e-16"])
    assert code == 1
    assert "1/1 checks passed" not in capsys.readouterr().out


def test_verify_threehalves_group(capsys):
    assert main(["verify", "threehalves"]) == 0
    out = capsys.readouterr().out
    assert "rank.three-halves" in out
    assert "rank.single-mode" in out
    assert "theta.elliptic" not in out


def test_verify_json_report(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert main(["verify", "theta", "--json", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["summary"]["failed"] == 0
    assert doc["config"]["seed"] == 2026


def test_expand_partition_series(capsys):
    assert main(["expand", "--object", "P", "--T", "20"]) == 0
    doc = json.loads(capsys.readouterr().out)
    want = partition_series(20)
    assert doc["den"] == want.den
    assert [Fraction(c) for c in doc["coeffs"]] == list(want.coeffs)


def test_expand_eta_scales_truncation(capsys):
    assert main(["expand", "--object", "eta", "--T", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    want = eta_expansion(72)
    assert doc["den"] == 24
    assert doc["offset"] == want.offset
    assert [Fraction(c) for c in doc["coeffs"]] == list(want.coeffs)


def test_eval_gauss_e_matches_mpmath(capsys):
    assert main(["eval", "--fn", "E", "--x", "0.7"]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    got = float(first.split("=")[1])
    mp.mp.dps = 30
    want = float(mp.erf(mp.sqrt(mp.pi) * mp.mpf("0.7")))
    assert abs(got - want) < 1e-14


@pytest.mark.parametrize("x", ["0.4", "2.999", "3.0", "40.0"])
def test_eval_gammainc_reports_the_documented_bound(capsys, x):
    assert main(["eval", "--fn", "gammainc", "--x", x]) == 0
    value, err = (float(line.split("=")[1])
                  for line in capsys.readouterr().out.splitlines())
    assert err == pytest.approx(UPPER_GAMMA_RTOL * value, rel=1e-3)
    with mp.workdps(40):
        want = mp.exp(mp.mpf(x)) * mp.gammainc(mp.mpf(-0.5), mp.mpf(x))
    assert abs(value - want) <= err


def test_eval_gammainc_domain_error(capsys):
    assert main(["eval", "--fn", "gammainc", "--x", "-1.0"]) == 2
    assert "must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("tau", ["0.3-0.1i", "0.3"])
def test_eval_rejects_tau_off_the_upper_half_plane(capsys, tau):
    # Tau's own rule, reported as a usage error
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--fn", "eta", "--tau", tau])
    assert exc.value.code == 2
    assert "imaginary part must be positive" in capsys.readouterr().err


# a signed value follows its flag as a separate word; at tau = i both eta
# routes and both E2 routes round alike, so only the ulp floor keeps their
# estimates above zero
@pytest.mark.parametrize("tau", ["0.1+1.1j", "-0.23+0.45j", "0+1j"])
@pytest.mark.parametrize("fn,extra,oracle", [
    pytest.param("eta", [], mp_eta, id="eta"),
    pytest.param("theta", ["--z", "0.2+0.1i"],
                 lambda tau: mp_theta(0.2 + 0.1j, tau), id="theta"),
    pytest.param("theta", ["--z", "-0.2+0.1i"],
                 lambda tau: mp_theta(-0.2 + 0.1j, tau), id="theta-signed-z"),
    pytest.param("E2", [], mp_e2, id="E2"),
])
def test_eval_reports_tiny_two_route_error(capsys, fn, extra, oracle, tau):
    assert main(["eval", "--fn", fn, "--tau", tau, *extra]) == 0
    value_line, error_line = capsys.readouterr().out.splitlines()
    # a real value prints without its imaginary part
    parts = value_line.split("=")[1].split() + ["0"]
    value = complex(float(parts[0]), float(parts[1].rstrip("i")))
    assert 0.0 < float(error_line.split()[-1]) < 1e-12
    want = oracle(complex(tau))
    assert abs(value - want) <= 1e-13 * abs(want)


def test_eval_period_two_route_error(capsys):
    assert main(["eval", "--fn", "period", "--tau", "0.2+1.3j",
                 "--mode", "0"]) == 0
    parts = capsys.readouterr().out.split()
    assert float(parts[-1]) < 1e-8
