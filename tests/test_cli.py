"""CLI behaviour and the exit-code contract (0 PP/success, 1 negative, 2 input error)."""

import json
import time

import pytest

from ppinv.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def json_lines(out):
    return [json.loads(line) for line in out.strip().splitlines()]


def test_check_pp(capsys):
    code, out, _ = run(capsys, "check", "--field", "5^1^1", "--m", "1", "--s", "2", "--t", "2", "--a", "2")
    assert code == 0
    assert "is_pp=true" in out
    assert "s_bar=2" in out and "u=2" in out and "criterion_value=4" in out


def test_check_not_pp(capsys):
    code, out, _ = run(capsys, "check", "--field", "5^1^1", "--m", "1", "--s", "2", "--t", "2", "--a", "1")
    assert code == 1
    assert "is_pp=false" in out


def test_check_bad_relation(capsys):
    code, _, err = run(capsys, "check", "--field", "5^1^1", "--m", "1", "--s", "2", "--t", "3", "--a", "2")
    assert code == 2
    assert "q^m - 1" in err


FAMILY_5 = ("--field", "5^1^1", "--m", "1", "--s", "2", "--t", "2")


@pytest.mark.parametrize(
    "argv, code, needle",
    [
        (("check", "--field", "6^1^1", "--m", "1", "--s", "2", "--t", "2", "--a", "2"), 2, "prime"),
        (("check", "--field", "5-1-1", "--m", "1", "--s", "2", "--t", "2", "--a", "2"), 2, "p^e^n"),
        (("check", "--field", "5^x^1", "--m", "1", "--s", "2", "--t", "2", "--a", "2"), 2,
         "non-integer component"),
        (("check", *FAMILY_5, "--a", "9"), 2, "range"),
        (("check", *FAMILY_5, "--a", "0"), 2, "nonzero"),
        (("check", *FAMILY_5, "--a", "x"), 2, "invalid literal"),
        (("check", "--field", "3^1^2", "--m", "1", "--s", "2", "--t", "1", "--a", "1,1,1", "--coeffs"),
         2, "too many coefficients"),
        (("verify", "--field", "2^1^17", "--m", "1", "--s", "1", "--t", "1", "--a", "2"), 2,
         "exceeds oracle cap"),
        # a form derived for other (p, m, s, t), with a permuting a (3) and a square (2)
        (("invert", "--field", "7^1^1", "--m", "1", "--s", "2", "--t", "3", "--a", "3", "--at", "6",
          "--special", "cor4"), 2, "not applicable"),
        (("invert", "--field", "7^1^1", "--m", "1", "--s", "2", "--t", "3", "--a", "2", "--at", "6",
          "--special", "cor4"), 2, "not applicable"),
        (("invert", "--field", "5^1^2", "--m", "2", "--s", "3", "--t", "8", "--a", "6", "--at", "6",
          "--special", "cor3"), 2, "not applicable"),
    ],
    ids=["non-prime-p", "bad-descriptor", "non-integer-component", "a-out-of-range", "a-zero",
         "non-integer-a", "coeffs-too-long", "verify-above-oracle-cap", "special-cor4-on-s2t3",
         "special-cor4-on-s2t3-square-a", "special-cor3-on-m2"],
)
def test_exit_codes_on_malformed_input(capsys, argv, code, needle):
    got, _, err = run(capsys, *argv)
    assert got == code
    assert needle in err


def test_descriptor_over_the_order_bound_exits_2_at_once(capsys):
    # 3^(3 10^7) is neither computed nor printed: the message names the bound
    start = time.perf_counter()
    code, out, err = run(capsys, "check", "--field", "3^1^30000000", "--m", "1", "--s", "2", "--t", "1",
                         "--a", "1")
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert "field order 3^30000000 exceeds the bound 4294967296" in err


def test_check_json(capsys):
    code, out, _ = run(capsys, "check", "--field", "7^1^1", "--m", "1", "--s", "3", "--t", "2",
                       "--a", "2", "--format", "json")
    assert code == 0
    (report,) = json_lines(out)
    assert report == {"is_pp": True, "d": 1, "s_bar": 3, "u": 2, "criterion_value": 4}


def test_check_coeffs_mode(capsys):
    # 1+i in F_9 has digits 1,1
    code, out, _ = run(capsys, "check", "--field", "3^1^2", "--m", "1", "--s", "2", "--t", "1",
                       "--a", "1,1", "--coeffs")
    assert code in (0, 1)
    assert "is_pp=" in out


def test_invert_at_pinned(capsys):
    code, out, _ = run(capsys, "invert", "--field", "5^1^1", "--m", "1", "--s", "2", "--t", "2",
                       "--a", "2", "--at", "3")
    assert code == 0
    assert "inverse_at=2" in out


def test_invert_at_zero(capsys):
    code, out, _ = run(capsys, "invert", "--field", "5^1^1", "--m", "1", "--s", "2", "--t", "2",
                       "--a", "2", "--at", "0")
    assert code == 0
    assert "inverse_at=0" in out


def test_invert_symbolic(capsys):
    code, out, _ = run(capsys, "invert", "--field", "5^1^1", "--m", "1", "--s", "2", "--t", "2",
                       "--a", "2", "--symbolic", "--format", "json")
    assert code == 0
    (report,) = json_lines(out)
    assert report["inverse_coeffs"] == "0,0,0,1"


# sha256 of the whole `invert --symbolic` output, one case per s_bar; the
# inverse y (scale g(y) h(y))^t is a polynomial in y^s_bar, up to the factor y
@pytest.mark.parametrize("field, m, s, t, a, s_bar, digest", [
    ("3^1^6", 4, 2, 40, 3, 2, "94ec7e3e3a2f8a9405a37e39d62f96ab6bbde39ef49f1f39ce5f7325e779533e"),
    ("3^1^6", 6, 13, 56, 3, 13, "c531fa9ceb3a58278275f3f0a80ee6e717b11637cb56cf659f3f0b34e330521b"),
    ("3^1^6", 6, 364, 2, 3, 364, "cd70b1c6fce29b333fabe7d45403507517a9b2a8a37f389739a4f7b4cc8f3944"),
    ("2^5^2", 2, 341, 3, 2, 341, "7bd95b7e62ec2d0b07a7f0ccaf0923f3f05f0fd76ec3db7f389ddb53f76aee17"),
])
def test_invert_symbolic_pinned(capsys, field, m, s, t, a, s_bar, digest):
    import hashlib

    family = ("--field", field, "--m", str(m), "--s", str(s), "--t", str(t), "--a", str(a))
    code, out, _ = run(capsys, "check", *family)
    assert code == 0 and f"s_bar={s_bar} " in out
    code, out, _ = run(capsys, "invert", *family, "--symbolic")
    assert code == 0 and out.startswith("is_pp=true inverse_coeffs=0,")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_symbolic_pinned_field(capsys):
    family = ("--field", "2^5^2", "--m", "2", "--s", "341", "--t", "3")
    # Q = 3^10 = 59049: interpolation runs on every field the oracle cap admits
    below_cap = ("--field", "3^1^10", "--m", "1", "--s", "2", "--t", "1")
    for args, a in [(family, "2"), (family, "7"), (family, "1000"), (below_cap, "34")]:
        code, out, _ = run(capsys, "verify", *args, "--a", a)
        assert code == 0
        assert "symbolic_ok=true" in out and out.endswith("mismatches=0\n")


def test_invert_non_pp_exits_1(capsys):
    code, out, _ = run(capsys, "invert", "--field", "5^1^1", "--m", "1", "--s", "2", "--t", "2",
                       "--a", "4", "--at", "3")
    assert code == 1


def test_invert_requires_work(capsys):
    for a in ("2", "4"):  # 4 is a square: the request is malformed whatever the verdict
        code, _, err = run(capsys, "invert", "--field", "5^1^1", "--m", "1", "--s", "2", "--t", "2", "--a", a)
        assert code == 2
        assert "--at" in err


def test_invert_special_auto_and_explicit(capsys):
    code, out, _ = run(capsys, "invert", "--field", "7^1^1", "--m", "1", "--s", "3", "--t", "2",
                       "--a", "2", "--at", "6", "--special", "auto", "--format", "json")
    assert code == 0
    (report,) = json_lines(out)
    assert report["special_form"] == "cor4"
    assert report["special_agrees"] is True
    assert report["inverse_at"] == 3
    code, out, _ = run(capsys, "invert", "--field", "7^1^1", "--m", "1", "--s", "2", "--t", "3",
                       "--a", "3", "--at", "6", "--special", "cor5")
    assert code == 0
    assert "special_agrees=true" in out and "inverse_at=1" in out


def test_invert_special_inapplicable_exits_2(capsys):
    code, _, err = run(capsys, "invert", "--field", "7^1^1", "--m", "1", "--s", "3", "--t", "2",
                       "--a", "2", "--at", "6", "--special", "cor3")
    assert code == 2
    assert "not applicable" in err


def test_invert_special_auto_falls_back_to_general(capsys):
    code, out, _ = run(capsys, "invert", "--field", "5^1^1", "--m", "1", "--s", "4", "--t", "1",
                       "--a", "2", "--at", "3", "--special", "auto")
    assert code == 0
    assert "special_form=general" in out


def test_verify_all_a(capsys):
    code, out, _ = run(capsys, "verify", "--field", "5^1^1", "--m", "1", "--s", "2", "--t", "2", "--all-a")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5  # 4 per-a reports + summary
    assert lines[-1] == "total=4 pp_count=2 mismatches=0"


def test_verify_f7_counts(capsys):
    code, out, _ = run(capsys, "verify", "--field", "7^1^1", "--m", "1", "--s", "2", "--t", "3",
                       "--all-a", "--format", "json")
    assert code == 0
    reports = json_lines(out)
    summary = reports[-1]
    assert summary["pp_count"] == 3 and summary["mismatches"] == 0
    pps = sorted(r["a"] for r in reports[:-1] if r["is_pp_criterion"])
    assert pps == [3, 5, 6]  # non-squares mod 7


def test_verify_single_a(capsys):
    code, out, _ = run(capsys, "verify", "--field", "5^1^1", "--m", "1", "--s", "2", "--t", "2", "--a", "2")
    assert code == 0
    assert "total=1 pp_count=1 mismatches=0" in out


def test_verify_cap_exceeded(capsys):
    code, _, err = run(capsys, "verify", "--field", "5^1^1", "--m", "1", "--s", "2", "--t", "2",
                       "--all-a", "--oracle-cap", "3")
    assert code == 2
    assert "cap" in err


def test_verify_bad_cap_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("PPINV_ORACLE_CAP", "abc")
    code, _, err = run(capsys, "verify", "--field", "5^1^1", "--m", "1", "--s", "2", "--t", "2", "--all-a")
    assert code == 2
    assert "PPINV_ORACLE_CAP" in err


def test_survey_cli(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    code, _, _ = run(capsys, "survey", "--max-order", "9", "--out", str(out1))
    assert code == 0
    code, _, _ = run(capsys, "survey", "--max-order", "9", "--out", str(out2))
    assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_survey_above_the_cap_exits_2_before_writing(tmp_path, capsys, monkeypatch):
    out = tmp_path / "x.csv"
    out.write_text("keep\n")
    code, stdout, err = run(capsys, "survey", "--max-order", "9", "--oracle-cap", "8", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert "field order 9 exceeds oracle cap 8" in err
    assert out.read_text() == "keep\n"
    code, _, _ = run(capsys, "survey", "--max-order", "10", "--oracle-cap", "9", "--out", str(out))
    assert code == 0 and out.read_text().startswith("p,e,n,")
    out.write_text("keep\n")
    # the cap is checked on the orders above it, without listing the splits
    import ppinv.verify

    def no_splits(max_order):
        raise AssertionError("field splits enumerated")

    monkeypatch.setattr(ppinv.verify, "field_splits", no_splits)
    code, _, err = run(capsys, "survey", "--max-order", str(2 ** 32), "--oracle-cap", "8", "--out", str(out))
    assert code == 2 and "field order 9 exceeds oracle cap 8" in err
    assert out.read_text() == "keep\n"


@pytest.mark.parametrize("max_order", ["1", "0", "-5"])
def test_survey_without_a_field_exits_2(tmp_path, capsys, max_order):
    out = tmp_path / "x.csv"
    code, stdout, err = run(capsys, "survey", "--max-order", max_order, "--out", str(out))
    assert (code, stdout) == (2, "")
    assert f"no field has order <= {max_order}" in err
    assert not out.exists()


def test_survey_unwritable_path(capsys):
    code, _, err = run(capsys, "survey", "--max-order", "4", "--out", "/nonexistent-dir/x.csv")
    assert code == 2
    assert "error" in err


def test_symbolic_above_table_limit_exits_2_under_memory_cap():
    # h has an x^(2^30 - 1) term here; densifying it would need 8 GiB.  The
    # address-space cap applies to the child process only, so a regression
    # fails with MemoryError instead of exhausting the host.
    import os
    import resource
    import subprocess
    import sys
    from pathlib import Path

    import ppinv

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(ppinv.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["invert", "--field", "2^1^32", "--m", "2", "--s", "3", "--t", "1", "--a", "3", "--symbolic"]
    proc = subprocess.run(
        [sys.executable, "-m", "ppinv.cli", *argv],
        capture_output=True, text=True, env=env, preexec_fn=cap_memory, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "too large for dense tables" in proc.stderr
    assert proc.stdout == ""
