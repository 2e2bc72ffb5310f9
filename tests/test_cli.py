"""Command-line entry points: determinism, exits, config handling, dumps."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cgmlab import cli, verification
from cgmlab.stats import TestReport
from cgmlab.verification import CriterionResult
from kernels import AVX512, NO_AVX512, NO_AVX512_ENV, assert_pinned, kernel_fingerprint


SRC = str(Path(cli.__file__).parents[1])
TESTS = str(Path(__file__).parent)


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


# sha256 of each fast suite's reports.jsonl at the default seed, one column
# per math-kernel fingerprint (see kernels.py).  A speed-up must leave every
# report bit for bit as it is; a change that moves a statistic on purpose
# records new digests and says why.
FAST_SUITE_DIGESTS = {
    AVX512: {
        "verify-queueing": "b54bacbb4cdb2ac03aebcc6be0d294f4123e26c2f4aa539c7d7916a0378cf05a",
        "verify-multiline": "050ea1d2eaca5fccb92450a65c8cfc32bec25c119dfeb1f30ddbaf34f5488177",
        "verify-coupled": "9fded2afb839deeaa3b06e4d1cf3323dbffe09438e967aeae4f683077f9dabc6",
        "verify-exact": "1d23344c1fd7dc5ecd2030580e13870c442c3c52272af86951afaf7e097d9398",
    },
    NO_AVX512: {
        "verify-queueing": "92ba3f356d1738a9e284e346c2e2f3626238c7d240ba4cbcd543e323f2a495f5",
        "verify-multiline": "7527bba4ade875aa4e4f7711afb12e84582a8ba1d09db27419080a7245ab08e7",
        "verify-coupled": "9fded2afb839deeaa3b06e4d1cf3323dbffe09438e967aeae4f683077f9dabc6",
        "verify-exact": "1d23344c1fd7dc5ecd2030580e13870c442c3c52272af86951afaf7e097d9398",
    },
}


@pytest.mark.parametrize("suite", sorted(FAST_SUITE_DIGESTS[AVX512]))
def test_fast_suite_reports_are_pinned(suite, tmp_path, monkeypatch):
    monkeypatch.delenv("CGMLAB_SEED", raising=False)
    assert run([suite, "--out", str(tmp_path)]) == 0
    assert_pinned(FAST_SUITE_DIGESTS, suite, (tmp_path / "reports.jsonl").read_bytes())


def test_a_pin_fails_on_kernels_it_has_no_column_for():
    # it names the fingerprint and how to record a column, and never skips
    with pytest.raises(pytest.fail.Exception, match=kernel_fingerprint()) as exc:
        assert_pinned({"other kernels": {}}, "verify-exact", b"")
    assert "To record them" in str(exc.value)


def test_fast_suite_pin_holds_on_the_kernels_without_avx512(tmp_path):
    # A child process under numpy's switch runs the kernels of a CPU
    # without AVX-512, so that column is checked on an AVX-512 host too.
    env = {**os.environ, **NO_AVX512_ENV, "PYTHONPATH": os.pathsep.join([SRC, TESTS])}
    env.pop("CGMLAB_SEED", None)
    code = ("import sys; from kernels import kernel_fingerprint; from cgmlab import cli; "
            "print(kernel_fingerprint(), file=sys.stderr); sys.exit(cli.main(sys.argv[1:]))")
    out = subprocess.run([sys.executable, "-c", code, "verify-multiline", "--out", str(tmp_path)],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    assert out.stderr.split()[0] == NO_AVX512
    data = (tmp_path / "reports.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == FAST_SUITE_DIGESTS[NO_AVX512]["verify-multiline"]


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


def test_used_output_is_refused_before_any_criterion_runs(tmp_path, monkeypatch, capsys):
    out = tmp_path / "o"
    out.mkdir()
    (out / "reports.jsonl").write_text("")
    calls = []
    monkeypatch.setattr(cli, "seed_ladder", lambda *a, **kw: calls.append(a))
    assert run(["verify-geodesics", "--out", str(out)]) == 2
    assert "force" in capsys.readouterr().err
    assert calls == []


def files_in(path):
    return {f.name: f.read_bytes() for f in path.iterdir()}


def test_used_criterion_csv_is_refused_before_any_criterion_runs(tmp_path, monkeypatch,
                                                                 capsys):
    # a criterion's CSV names are found from its index alone, before it runs
    def stub(seed):
        rep = TestReport("always-good", 0.5, 1.0, 10, seed, True)
        return CriterionResult(99, seed, [rep], {"table": (["a", "b"], [(1, 0.5)])})

    monkeypatch.setitem(verification.CRITERIA, 99, stub)
    monkeypatch.setitem(cli._SUITES, "verify-multiline", (99,))
    calls = []
    ladder = cli.seed_ladder
    monkeypatch.setattr(cli, "seed_ladder",
                        lambda *a, **kw: calls.append(a) or ladder(*a, **kw))
    out = tmp_path / "o"
    out.mkdir()
    (out / "criterion99_table.csv").write_text("old\n")
    (out / "criterion9_table.csv").write_text("other\n")
    before = files_in(out)
    assert run(["verify-multiline", "--out", str(out)]) == 2
    assert "force" in capsys.readouterr().err
    assert calls == []
    assert files_in(out) == before
    assert run(["verify-multiline", "--out", str(out), "--force"]) == 0
    assert len(calls) == 1
    after = files_in(out)
    assert sorted(after) == ["criterion99_table.csv", "criterion9_table.csv", "reports.jsonl"]
    assert after["criterion99_table.csv"] == b"a,b\n1,0.5\n"
    assert after["criterion9_table.csv"] == b"other\n"


@pytest.mark.parametrize("argv, held, sampler", [
    (["sample-mu", "--length", "50"], "mu_rates.csv", "sample_mu_rho"),
    (["simulate-lpp", "--n", "5"], "interface.csv", "sample_exp_field")])
def test_used_dump_file_is_refused_before_any_sampling(argv, held, sampler, tmp_path,
                                                       monkeypatch, capsys):
    # a dump's last file held alone refuses the whole dump, and nothing is drawn
    calls = []
    monkeypatch.setattr(cli, sampler, lambda *a, **kw: calls.append(a))
    out = tmp_path / "o"
    out.mkdir()
    (out / held).write_text("old\n")
    assert run([*argv, "--out", str(out)]) == 2
    assert "force" in capsys.readouterr().err
    assert calls == []
    assert files_in(out) == {held: b"old\n"}


@pytest.mark.parametrize("argv, sampler", [
    (["verify-exact"], "seed_ladder"),
    (["simulate-lpp", "--n", "5"], "sample_exp_field")])
@pytest.mark.parametrize("under", [False, True])
def test_output_path_that_is_no_directory_is_refused_before_any_work(
        argv, sampler, under, tmp_path, monkeypatch, capsys):
    # --out naming a file, or a path under one, is a usage error found
    # before the first criterion or draw, and the file is left as it was
    calls = []
    monkeypatch.setattr(cli, sampler, lambda *a, **kw: calls.append(a))
    held = tmp_path / "held"
    held.write_text("old\n")
    out = held / "sub" if under else held
    assert run([*argv, "--out", str(out)]) == 2
    assert "not a directory" in capsys.readouterr().err
    assert calls == []
    assert files_in(tmp_path) == {"held": b"old\n"}


def test_import_loads_no_scipy():
    # scipy is imported only inside criterion 8's chi-square test
    code = ("import sys, cgmlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": SRC})
    assert out.stdout.strip() == "[]"


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
# and with none, keyed as the fast suites' digests above: the departure
# fold and the boundary cut must leave the sample as it is.
SAMPLE_MU_DIGESTS = {
    AVX512: {
        (): "f7919929a83af9427b9857560a3aee3bb9569ae3058e111603ef8ab82895ddf0",
        ("--burn-in", "0"): "7b261770e11cd1ccab1ca5f252651ae7321d0c671a634e9befd706276cabcd01",
    },
    NO_AVX512: {
        (): "581766ceed743128525f822da9b2b11a56d56318ed2e8922d5dbcf9b1ebf8b47",
        ("--burn-in", "0"): "2d5ec7150056e8ed602f3a7ded47d659e2e81758f3f25a69896ed76ea5e1ead9",
    },
}


def test_sample_mu_output_is_pinned(tmp_path, monkeypatch):
    monkeypatch.delenv("CGMLAB_SEED", raising=False)
    for extra in SAMPLE_MU_DIGESTS[AVX512]:
        out = tmp_path / "-".join(("mu",) + extra)
        assert run(["sample-mu", "--rates", "1.5,2,4", "--length", "2000",
                    "--out", str(out), *extra]) == 0
        assert_pinned(SAMPLE_MU_DIGESTS, extra, (out / "mu.csv").read_bytes())


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
