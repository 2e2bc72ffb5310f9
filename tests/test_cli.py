"""Command-line entry points: determinism, exits, config handling, dumps."""

import hashlib
import json

import pytest

from cgmlab import cli, verification
from cgmlab.stats import TestReport
from cgmlab.verification import CriterionResult


def run(argv):
    return cli.main(argv)


def q_args(out, extra=()):
    return ["verify-queueing", "--seed", "11", "--out", str(out),
            "--instances", "3", "--window", "120", *extra]


def test_version_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    assert "cgmlab" in capsys.readouterr().out


def test_bad_flag_exits_two():
    # there is no --threads flag: criteria run one after another
    for flags in (["--no-such-flag"], ["--threads", "2"]):
        with pytest.raises(SystemExit) as exc:
            run(["verify-queueing", *flags])
        assert exc.value.code == 2


def test_suite_covers_all_criteria():
    flat = sorted(i for idx in cli._SUITES.values() for i in idx)
    assert flat == list(range(1, 14))
    assert sorted(verification.CRITERIA) == list(range(1, 14))


def test_verify_run_is_deterministic(tmp_path, capsys):
    assert run(q_args(tmp_path / "a")) == 0
    assert run(q_args(tmp_path / "b")) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") >= 6
    ra = (tmp_path / "a" / "reports.jsonl").read_bytes()
    rb = (tmp_path / "b" / "reports.jsonl").read_bytes()
    assert ra == rb
    rows = [json.loads(line) for line in ra.decode().splitlines()]
    assert rows
    for row in rows:
        assert set(row) == {"name", "statistic", "threshold", "n", "seed",
                            "pass", "paper_ref"}
        assert row["seed"] == 11


def test_verify_queueing_spans_instance_blocks(tmp_path):
    # criterion 2 checks its instances in stacks of at most _STACK_BLOCK
    instances = verification._STACK_BLOCK + 1
    out = tmp_path / "blocks"
    assert run(["verify-queueing", "--seed", "11", "--out", str(out),
                "--instances", str(instances), "--window", "40"]) == 0
    rows = [json.loads(line) for line in
            (out / "reports.jsonl").read_text().splitlines()]
    queueing = [row for row in rows if row["name"].startswith("queueing-")]
    assert len(queueing) == 5
    assert all(row["n"] == instances and row["pass"] for row in queueing)


# sha256 of each fast suite's reports.jsonl at the default seed.  A
# speed-up must leave every report bit for bit as it is; a change that moves
# a statistic on purpose records new digests and says why.  Recorded with
# numpy 2.4 on x86-64: a build whose exp or log1p rounds differently moves
# the statistics, and with them these digests.
FAST_SUITE_DIGESTS = {
    "verify-queueing": "b54bacbb4cdb2ac03aebcc6be0d294f4123e26c2f4aa539c7d7916a0378cf05a",
    "verify-multiline": "050ea1d2eaca5fccb92450a65c8cfc32bec25c119dfeb1f30ddbaf34f5488177",
    "verify-coupled": "9fded2afb839deeaa3b06e4d1cf3323dbffe09438e967aeae4f683077f9dabc6",
    "verify-exact": "1d23344c1fd7dc5ecd2030580e13870c442c3c52272af86951afaf7e097d9398",
}


@pytest.mark.parametrize("suite", sorted(FAST_SUITE_DIGESTS))
def test_fast_suite_reports_are_pinned(suite, tmp_path, monkeypatch):
    monkeypatch.delenv("CGMLAB_SEED", raising=False)
    assert run([suite, "--out", str(tmp_path)]) == 0
    data = (tmp_path / "reports.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == FAST_SUITE_DIGESTS[suite]


def test_existing_output_needs_force(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(q_args(out)) == 0
    assert run(q_args(out)) == 2
    assert "force" in capsys.readouterr().err
    assert run(q_args(out, ["--force"])) == 0
    cfg = tmp_path / "c.cfg"
    for value, code in (("false", 2), ("true", 0)):
        cfg.write_text(f"force={value}\n")
        assert run(q_args(out, ["--config", str(cfg)])) == code
    # an abbreviated flag wins over the file too
    cfg.write_text("force=false\n")
    assert run(q_args(out, ["--config", str(cfg), "--for"])) == 0


def test_unknown_config_key_exits_two(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    for key in ("bogus", "threads"):
        cfg.write_text(f"{key}=2\n")
        code = run(q_args(tmp_path / "o", ["--config", str(cfg)]))
        assert code == 2
        assert key in capsys.readouterr().err


def test_malformed_config_exits_two(tmp_path):
    cfg = tmp_path / "c.cfg"
    # force takes only true or false
    for line in ("seed 11", "force=True", "force=1", "force=yes"):
        cfg.write_text(line + "\n")
        assert run(q_args(tmp_path / "o", ["--config", str(cfg)])) == 2
    # a criterion needs at least one instance to check anything
    for count in ("0", "-3"):
        assert run(["verify-queueing", "--out", str(tmp_path / "o"),
                    "--instances", count]) == 2
    assert not (tmp_path / "o").exists()


def test_config_supplies_defaults_but_flags_win(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("# comment\nseed=123\ninstances=3\nwindow=120\n")
    out = tmp_path / "a"
    assert run(["verify-queueing", "--out", str(out),
                "--config", str(cfg)]) == 0
    row = json.loads((out / "reports.jsonl").read_text().splitlines()[0])
    assert row["seed"] == 123
    out = tmp_path / "b"
    assert run(["verify-queueing", "--out", str(out), "--config", str(cfg),
                "--seed", "456"]) == 0
    row = json.loads((out / "reports.jsonl").read_text().splitlines()[0])
    assert row["seed"] == 456
    out = tmp_path / "c"
    assert run(["verify-queueing", "--out", str(out), "--config", str(cfg),
                "--se", "456"]) == 0
    row = json.loads((out / "reports.jsonl").read_text().splitlines()[0])
    assert row["seed"] == 456


def test_env_seed_is_picked_up(tmp_path, monkeypatch):
    monkeypatch.setenv("CGMLAB_SEED", "777")
    out = tmp_path / "env"
    assert run(q_args_no_seed(out)) == 0
    row = json.loads((out / "reports.jsonl").read_text().splitlines()[0])
    assert row["seed"] == 777
    # a malformed seed is a usage error, unless an explicit --seed wins
    monkeypatch.setenv("CGMLAB_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        run(q_args_no_seed(tmp_path / "bad"))
    assert exc.value.code == 2
    assert not (tmp_path / "bad").exists()
    assert run(q_args(tmp_path / "flag")) == 0


def q_args_no_seed(out):
    return ["verify-queueing", "--out", str(out),
            "--instances", "3", "--window", "120"]


def test_failing_criterion_exits_one(tmp_path, monkeypatch, capsys):
    def stub(seed):
        rep = TestReport("always-bad", 1.0, 0.5, 10, seed, False)
        return CriterionResult(99, seed, [rep])

    monkeypatch.setitem(verification.CRITERIA, 99, stub)
    monkeypatch.setitem(cli._SUITES, "verify-multiline", (99,))
    code = run(["verify-multiline", "--seed", "11", "--out",
                str(tmp_path / "f")])
    assert code == 1
    out = capsys.readouterr().out
    assert "criterion 99: FAIL" in out
    assert "always-bad" in out


def test_simulate_lpp_dump(tmp_path):
    out = tmp_path / "lpp"
    assert run(["simulate-lpp", "--seed", "11", "--n", "5",
                "--out", str(out)]) == 0
    gtable = (out / "gtable.csv").read_text().splitlines()
    assert gtable[0] == "k,t,value"
    assert len(gtable) == 1 + 36
    ks = {int(line.split(",")[0]) for line in gtable[1:]}
    assert ks == set(range(-5, 1))
    geo = (out / "geodesic.csv").read_text().splitlines()
    assert geo[0] == "step_index,x,y"
    assert len(geo) == 1 + 11
    assert geo[1].split(",")[1:] == ["0", "0"]
    iface = (out / "interface.csv").read_text().splitlines()
    assert iface[0] == "step_index,x,y"
    assert len(iface) == 1 + 5
    assert run(["simulate-lpp", "--n", "1", "--out", str(tmp_path / "x")]) == 2


# sha256 of sample-mu's mu.csv at the default seed, at the default burn-in
# and with none, recorded as the fast suites' digests above: the departure
# fold and the boundary cut must leave the sample as it is.
SAMPLE_MU_DIGESTS = {
    (): "f7919929a83af9427b9857560a3aee3bb9569ae3058e111603ef8ab82895ddf0",
    ("--burn-in", "0"): "7b261770e11cd1ccab1ca5f252651ae7321d0c671a634e9befd706276cabcd01",
}


def test_sample_mu_output_is_pinned(tmp_path, monkeypatch):
    monkeypatch.delenv("CGMLAB_SEED", raising=False)
    for extra, digest in SAMPLE_MU_DIGESTS.items():
        out = tmp_path / "-".join(("mu",) + extra)
        assert run(["sample-mu", "--rates", "1.5,2,4", "--length", "2000",
                    "--out", str(out), *extra]) == 0
        data = (out / "mu.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


def test_sample_mu_dump(tmp_path):
    out = tmp_path / "mu"
    assert run(["sample-mu", "--seed", "11", "--rates", "2,3",
                "--length", "50", "--out", str(out)]) == 0
    mu = (out / "mu.csv").read_text().splitlines()
    assert mu[0] == "line,index,value"
    assert len(mu) == 1 + 2 * 40  # twenty percent burn-in trimmed
    rates = (out / "mu_rates.csv").read_text().splitlines()
    assert rates == ["line,rate", "0,2.0", "1,3.0"]
    # an infinite or NaN mean is refused before anything is written
    for bad in ("inf", "nan"):
        out = tmp_path / bad
        assert run(["sample-mu", "--rates", f"2,{bad}", "--length", "20",
                    "--out", str(out)]) == 2
        assert not out.exists()
