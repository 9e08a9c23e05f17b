"""End-to-end command tests, run in-process against cli.main.

Each command writes into a fresh tmp directory; CSV pins are byte-level
(the printing contract is part of the interface), and determinism is checked
by comparing whole files across reruns, JSON modulo the timing field.
"""

import ast
import contextlib
import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subaddlab import cli, experiments, limits, reporting, verify, weights


def run(tmp_path, *argv):
    return cli.main([*argv, "--outdir", str(tmp_path)])


def read_csv(tmp_path, name):
    return (Path(tmp_path) / name).read_text()


def read_json(tmp_path, name):
    with open(Path(tmp_path) / name) as fh:
        return json.load(fh)


def test_alpha_exact_rows(tmp_path):
    assert run(tmp_path, "alpha", "--n", "1", "--jmax", "4", "--backend", "exact") == 0
    text = read_csv(tmp_path, "alpha.csv")
    assert text.splitlines()[0] == "n,j,weight,backend"
    assert "\r" not in text and text.endswith("\n")
    assert text.splitlines()[1:] == [
        "1,0,1/2,exact",
        "1,1,1/8,exact",
        "1,2,1/16,exact",
        "1,3,5/128,exact",
    ]
    rep = read_json(tmp_path, "alpha.json")
    assert rep["schemaVersion"] == 2
    assert rep["command"] == "alpha"
    assert all(rep["verdicts"].values())
    assert isinstance(rep["wallTimeSeconds"], float)
    # exact tail bound n T(J)
    assert Fraction(rep["parameters"]["tailBound"]) == weights.tail_exact(4)
    assert run(tmp_path, "alpha", "--n", "2", "--jmax", "3", "--backend", "exact") == 0
    assert read_csv(tmp_path, "alpha.csv").splitlines()[1:] == [
        "2,0,1/4,exact",
        "2,1,1/8,exact",
        "2,2,5/64,exact",
    ]
    rep = read_json(tmp_path, "alpha.json")
    assert Fraction(rep["parameters"]["tailBound"]) == 2 * weights.tail_exact(3)


def test_alpha_single_row_and_log_backend(tmp_path):
    assert run(tmp_path, "alpha", "--n", "2", "--jmax", "1", "--backend", "exact") == 0
    assert read_csv(tmp_path, "alpha.csv").splitlines()[1] == "2,0,1/4,exact"
    assert run(tmp_path, "alpha", "--n", "1", "--jmax", "8", "--backend", "log") == 0
    lines = read_csv(tmp_path, "alpha.csv").splitlines()
    assert lines[1].startswith("1,0,0.5") and lines[1].endswith(",log")
    # log rows are the float row engine's values, to the bit
    for n, jmax in ((1, 8), (3, 2500)):
        argv = ("alpha", "--n", str(n), "--jmax", str(jmax), "--backend", "log")
        assert run(tmp_path, *argv) == 0
        rows = [line.split(",") for line in read_csv(tmp_path, "alpha.csv").splitlines()[1:]]
        assert [float(r[2]) for r in rows] == weights.float_row(n, jmax).tolist()
        rep = read_json(tmp_path, "alpha.json")
        assert rep["parameters"]["tailBound"] == min(
            1.0, n * weights.tail_float_bounds(jmax)[1]
        )
        assert all(rep["verdicts"].values())
    # auto is exact up to j + n = 2000 (j = jmax - 1) and log past it
    cases = ((1, 2000, "exact"), (1, 2001, "log"), (5, 1996, "exact"), (5, 1997, "log"))
    for n, jmax, backend in cases:
        assert run(tmp_path, "alpha", "--n", str(n), "--jmax", str(jmax)) == 0
        assert read_json(tmp_path, "alpha.json")["parameters"]["backend"] == backend
        assert read_csv(tmp_path, "alpha.csv").endswith(f",{backend}\n")


def test_alpha_usage_and_resource_errors(tmp_path):
    assert run(tmp_path, "alpha", "--n", "0") == 2
    assert run(tmp_path, "alpha", "--n", "1", "--jmax", "3000", "--backend", "exact") == 3


def test_far_log_row_exits_3_without_grinding(tmp_path):
    t0 = time.perf_counter()
    assert run(tmp_path, "alpha", "--n", "1000000", "--backend", "log") == 3
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize(
    "argv",
    [
        ("blowup", "--nmax", "100000"),
        ("growth", "--nmax", "1400"),
        ("growth", "--nmax", "1000"),
        ("simulate", "--fn", "table", "--n", "100000", "--trials", "100000"),
        ("sato", "--nmax", "1000000000"),
        ("probe", "--jmax", "100000000"),
        ("maximal", "--mgrid", "1000000"),
    ],
    ids=[
        "blowup_sweep",
        "growth_sweep",
        "growth_windows",
        "simulate_draws",
        "sato_rows",
        "probe_grid",
        "maximal_window",
    ],
)
def test_long_sweeps_and_draw_counts_exit_3_without_grinding(tmp_path, argv):
    t0 = time.perf_counter()
    assert run(tmp_path, *argv) == 3
    assert time.perf_counter() - t0 < 1.0


def test_resource_ceiling_env(tmp_path, monkeypatch):
    monkeypatch.setenv("SUBADDLAB_MAX_J", "100")
    assert run(tmp_path, "alpha", "--n", "1", "--jmax", "200", "--backend", "log") == 3


def test_verify_core_and_fault_injection(tmp_path, capsys):
    assert run(tmp_path, "verify", "--suite", "core") == 0
    out = capsys.readouterr().out
    assert "[PASS] verify" in out
    rep = read_json(tmp_path, "verify.json")
    assert all(rep["verdicts"].values())
    assert list(rep["verdicts"]) == [name for name, _ in verify.CORE_CHECKS]
    # a 1e-9 perturbation of the float path must flip backend agreement
    assert run(tmp_path, "verify", "--suite", "core", "--inject-float-bias", "1e-9") == 1
    rep = read_json(tmp_path, "verify.json")
    assert rep["verdicts"]["backend_agreement"] is False


def test_check_table_matches_the_benchmark_names():
    # bench/run.py times each check as verify.<name>.s under these names
    tree = ast.parse((Path(__file__).parents[1] / "bench" / "run.py").read_text())
    [bench_names] = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "VERIFY_CHECKS" for t in node.targets)
    ]
    assert [name for name, _ in verify.CORE_CHECKS + verify.FULL_CHECKS] == list(bench_names)


@pytest.mark.parametrize("bias", ["nan", "inf"])
def test_verify_non_finite_bias_fails(tmp_path, capsys, bias):
    assert run(tmp_path, "verify", "--suite", "core", "--inject-float-bias", bias) == 1
    assert "[FAIL] verify.backend_agreement" in capsys.readouterr().out
    text = (Path(tmp_path) / "verify.json").read_text()

    def reject(name):
        raise AssertionError(f"verify.json holds the non-JSON constant {name}")

    rep = json.loads(text, parse_constant=reject)
    assert rep["parameters"]["injectFloatBias"] == bias
    assert rep["verdicts"]["backend_agreement"] is False


def test_growth_command(tmp_path):
    assert run(tmp_path, "growth", "--p", "2", "--nmax", "16", "--fit-from", "4") == 0
    lines = read_csv(tmp_path, "growth.csv").splitlines()
    assert lines[0] == "n,norm_fn,norm_Anfn_lower,ratio,upper_bound"
    assert len(lines) == 17
    rep = read_json(tmp_path, "growth.json")
    assert rep["verdicts"] == {"slope_in_window": True, "ratio_below_norm_bound": True}
    assert run(tmp_path, "growth", "--p", "1.0") == 2


def test_blowup_command(tmp_path):
    assert run(tmp_path, "blowup", "--nmax", "8", "--trunc", "65536") == 0
    lines = read_csv(tmp_path, "blowup.csv").splitlines()
    assert lines[0] == "n,E_lower,norm_lower"
    assert lines[1] == "0,0,0"
    rep = read_json(tmp_path, "blowup.json")
    assert all(rep["verdicts"].values())
    assert run(tmp_path, "blowup", "--beta", "0.4") == 2


def test_blowup_reuses_the_verify_pass(tmp_path, monkeypatch):
    limits.clear_memos()
    assert run(tmp_path, "blowup") == 0
    before = (tmp_path / "blowup.csv").read_bytes()
    assert run(tmp_path, "verify", "--suite", "all") == 0
    sweeps = []
    sweep = experiments._divergence_sweep
    monkeypatch.setattr(experiments, "_divergence_sweep", lambda *a: sweeps.append(a) or sweep(*a))
    assert run(tmp_path, "blowup") == 0
    assert sweeps == []
    assert (tmp_path / "blowup.csv").read_bytes() == before
    # the row ceiling still applies to a pass that is already memoized
    assert run(tmp_path, "blowup", "--nmax", "8", "--trunc", "65536") == 0
    monkeypatch.setenv("SUBADDLAB_MAX_J", "100")
    assert run(tmp_path, "blowup", "--nmax", "8", "--trunc", "65536") == 3


def test_maximal_command(tmp_path):
    assert run(tmp_path, "maximal") == 0
    lines = read_csv(tmp_path, "maximal.csv").splitlines()
    assert lines[0] == "m,ratio"
    assert [l.split(",")[0] for l in lines[1:]] == ["4", "16", "64", "256"]
    rep = read_json(tmp_path, "maximal.json")
    assert rep["verdicts"] == {"strictly_increasing": True, "gain_ge_1_15": True}
    assert run(tmp_path, "maximal", "--mgrid", "16,4") == 2


def test_probe_command(tmp_path):
    assert run(tmp_path, "probe", "--nmax", "6") == 0
    lines = read_csv(tmp_path, "probe.csv").splitlines()
    assert lines[0] == "n,j,ratio"
    assert "2,4,3/4" in lines
    rep = read_json(tmp_path, "probe.json")
    assert rep["verdicts"]["min_positive"] is True
    assert rep["parameters"]["minObserved"] == "1309/1824"
    assert run(tmp_path, "probe", "--nmax", "2", "--jmax", "3") == 2


PROBE_CSV = """\
n,j,ratio
2,3,7/10
2,4,3/4
2,5,11/14
2,6,13/16
2,7,5/6
2,8,17/20
3,6,91/144
3,7,2/3
3,8,153/220
"""

# schema 2: the rows live in probe.csv, which the JSON names by row count and digest
PROBE_JSON = """\
{
  "schemaVersion": 2,
  "command": "probe",
  "parameters": {
    "c0": "3/2",
    "nMax": 3,
    "jMax": 8,
    "minObserved": "91/144",
    "argmin": [
      3,
      6
    ]
  },
  "csv": {
    "name": "probe.csv",
    "rowCount": 9,
    "sha256": "05f0c0d9bae650f38e7ed4f86700c846b8d23873827dd68ddbc1ae106b04a6f9"
  },
  "verdicts": {
    "min_positive": true
  },
  "wallTimeSeconds": T
}
"""


def test_probe_json_bytes(tmp_path):
    # Fraction parameters and rows print as num/den, the argmin tuple as a list
    assert run(tmp_path, "probe", "--c0", "3/2", "--nmax", "3", "--jmax", "8") == 0
    assert read_csv(tmp_path, "probe.csv") == PROBE_CSV
    text = (tmp_path / "probe.json").read_text()
    masked = re.sub(r'"wallTimeSeconds": [0-9.e+-]+', '"wallTimeSeconds": T', text)
    assert masked == PROBE_JSON


def test_json_rejects_numpy_scalars(tmp_path):
    # a value json cannot print is an error, not a string, and leaves no file
    path = tmp_path / "bad.json"
    with pytest.raises(TypeError):
        reporting.write_json(str(path), "bad", {"n": np.int64(3)}, [], {}, 0.0)
    assert list(tmp_path.iterdir()) == []


def test_streamed_csv_block_names_the_bytes_on_disk(tmp_path):
    # the digest and row count are taken while the chunks are written; they
    # must be those of the file, for the probe's lines and for rendered rows
    rep = experiments.lower_bound_probe(1, 6, 300)
    rows = [(j, Fraction(j, 7), j / 7, j % 2 == 0, "x,y") for j in range(10_000)]
    cases = [
        ("probe.csv", ("n", "j", "ratio"), (run.lines for run in rep.runs)),
        ("rows.csv", ("j", "q", "f", "even", "s"), reporting.csv_text(rows)),
    ]
    for name, header, chunks in cases:
        block = reporting.write_csv(str(tmp_path / name), header, chunks)
        data = (tmp_path / name).read_bytes()
        assert block == {
            "name": name,
            "rowCount": len(data.splitlines()) - 1,
            "sha256": hashlib.sha256(data).hexdigest(),
        }
    assert read_csv(tmp_path, "probe.csv").count("\n") == 1 + sum(301 - n * n for n in range(2, 7))
    # rendered rows print as a csv.writer over format_value's texts prints them
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(cases[1][1])
    writer.writerows([reporting.format_value(v) for v in row] for row in rows)
    assert read_csv(tmp_path, "rows.csv") == text.getvalue()


def test_failed_csv_write_keeps_the_old_file(tmp_path):
    # rows that raise after the first chunk is on disk leave no temp file,
    # and the file already at the target keeps its bytes
    target = tmp_path / "rows.csv"
    target.write_bytes(b"old\n")

    def rows():
        yield from ((j, j / 3) for j in range(reporting._CHUNK_ROWS + 1))
        raise ValueError("mid-file")

    with pytest.raises(ValueError, match="mid-file"):
        reporting.write_csv(str(target), ("j", "x"), reporting.csv_text(rows()))
    assert [p.name for p in tmp_path.iterdir()] == ["rows.csv"]
    assert target.read_bytes() == b"old\n"


def test_sato_command(tmp_path):
    assert run(tmp_path, "sato", "--a", "1", "--nmax", "3", "--p", "2") == 0
    lines = read_csv(tmp_path, "sato.csv").splitlines()
    assert lines[0] == "n,norm"
    assert lines[-1] == "3,3.1622776601683795"  # sqrt(10), 17 significant digits
    rep = read_json(tmp_path, "sato.json")
    assert all(rep["verdicts"].values())
    assert run(tmp_path, "sato", "--a", "0", "--nmax", "3") == 2
    assert run(tmp_path, "sato", "--nmax", "1") == 2


def test_simulate_command_and_determinism(tmp_path):
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    d1.mkdir(), d2.mkdir()
    args = ("simulate", "--n", "2", "--trials", "10000", "--seed", "42")
    assert run(d1, *args) == 0
    assert run(d2, *args) == 0
    assert (d1 / "simulate.csv").read_bytes() == (d2 / "simulate.csv").read_bytes()
    j1, j2 = read_json(d1, "simulate.json"), read_json(d2, "simulate.json")
    j1.pop("wallTimeSeconds"), j2.pop("wallTimeSeconds")
    assert j1 == j2
    lines = (d1 / "simulate.csv").read_text().splitlines()
    assert lines[0] == "estimate,half_width,exact_mid,ok"
    assert lines[1].endswith(",true")
    rep = read_json(d1, "simulate.json")
    assert rep["verdicts"] == {"within_three_half_widths": True}


def test_simulate_heavy_tail_guard(tmp_path):
    assert run(tmp_path, "simulate", "--fn", "power", "--beta", "0.5") == 2


def test_usage_errors():
    assert cli.main([]) == 2
    assert cli.main(["definitely-not-a-command"]) == 2
    assert cli.main(["--help"]) == 0


def test_report_aggregates_everything(tmp_path, monkeypatch):
    limits.clear_memos()
    # (J, last n stepped) of every pass that steps float rows
    passes = []
    stepped = weights._stepped
    monkeypatch.setattr(
        weights, "_stepped", lambda J, n_max, *a: passes.append((J, n_max)) or stepped(J, n_max, *a)
    )
    windows, ratio = [], experiments.maximal_ratio_T
    monkeypatch.setattr(experiments, "maximal_ratio_T", lambda m, p: windows.append(m) or ratio(m, p))
    survival, survival_rows = [], experiments._survival_rows
    monkeypatch.setattr(
        experiments, "_survival_rows", lambda n, lim: survival.append(n) or survival_rows(n, lim)
    )
    assert run(tmp_path, "report", "--trials", "20000") == 0
    # one 2^20 pass to n = 32 serves both divergence exponents, the blowup
    # command and mc_agreement's k^0.2 enclosure at n = 4
    assert sorted(n for J, n in passes if J == 1 << 20) == [32]
    # probe computes once for verify and the command; growth builds its
    # survival rows once, for verify's three p, and the command reads the
    # p = 2 result; maximal, under a millisecond, computes for each
    assert experiments._probe.cache_info()[:2] == (1, 1)
    assert survival == [32]
    assert windows == [4, 16, 64, 256] * 2
    for name in (
        "alpha.csv",
        "verify.json",
        "growth.csv",
        "blowup.csv",
        "maximal.csv",
        "probe.csv",
        "sato.csv",
        "simulate.csv",
        "summary.json",
    ):
        assert (tmp_path / name).exists(), name
    summary = read_json(tmp_path, "summary.json")
    assert summary["command"] == "report"
    assert len(summary["verdicts"]) >= 30
    assert all(summary["verdicts"].values())


def test_report_jsons_name_their_csvs(tmp_path):
    # schema 2: each JSON report names its CSV by row count and SHA-256 and
    # holds no rows; verify.json and summary.json write no CSV
    assert run(tmp_path, "report", "--seed", "2") == 0
    reports = {p.name: json.loads(p.read_text()) for p in tmp_path.glob("*.json")}
    assert len(reports) == 9
    for name, rep in reports.items():
        assert rep["schemaVersion"] == 2 and "rows" not in rep, name
        if name in ("verify.json", "summary.json"):
            assert "csv" not in rep, name
            continue
        block = rep["csv"]
        assert block["name"] == name.replace(".json", ".csv")
        data = (tmp_path / block["name"]).read_bytes()
        assert block["rowCount"] == len(data.splitlines()) - 1, name
        assert block["sha256"] == hashlib.sha256(data).hexdigest(), name
    assert reports["probe.json"]["csv"]["rowCount"] == 21362


def test_report_rerun_into_its_outdir(tmp_path):
    # a second report over the first one's files writes the same bytes,
    # JSON up to its timing, and leaves no temp file behind
    def outputs():
        files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        for name in [n for n in files if n.endswith(".json")]:
            rep = json.loads(files[name])
            del rep["wallTimeSeconds"]
            files[name] = rep
        return files

    assert run(tmp_path, "report", "--seed", "2") == 0
    first = outputs()
    assert run(tmp_path, "report", "--seed", "2") == 0
    assert outputs() == first
    assert len(first) == 16 and not any(n.startswith(".tmp-") for n in first)


@pytest.mark.parametrize(
    "argv",
    [
        ["blowup", "--nmax", "0"],
        ["growth", "--fit-from", "100"],
        ["sato", "--p", "1e308", "--nmax", "3"],
        ["growth", "--p", "1e300"],
        ["probe", "--c0", "1/0"],
        ["alpha", "--n", "1", "--outdir", os.devnull],
        ["simulate", "--k", "100000000000000000000"],
        # refused at parse time, before any work or any file is written
        ["verify", "--suite", "all", "--seed", "-1"],
        ["report", "--seed", "-1"],
        ["report", "--trials", "0"],
        ["simulate", "--seed", "-1"],
        ["growth", "--fit-from", "0"],
    ],
)
def test_bad_input_is_a_usage_error(tmp_path, argv):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    if "--outdir" not in argv:
        argv = [*argv, "--outdir", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, "-m", "subaddlab", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "error:" in proc.stderr and "domain error" not in proc.stderr
    assert not any(tmp_path.iterdir())


def test_far_indicator_threshold_hits_the_ceiling_fast(tmp_path):
    # the indicator stays two runs, so nothing O(m) is built before the ceiling
    argv = ("simulate", "--fn", "indicator", "--m", "3000000000", "--trials", "10")
    assert run(tmp_path, *argv) == 3


# every flag of each command, each from a small pool of valid, boundary and
# malformed values; all pools keep a run cheap (verify and report are left out)
FLAG_POOLS = {
    "--n": ("-1", "0", "1", "2", "x"),
    "--jmax": ("-1", "0", "1", "16", "3000"),
    "--backend": ("exact", "log", "auto", "bogus"),
    "--p": ("nan", "inf", "-1", "1", "1.5", "2", "1e300", "1e308"),
    "--nmax": ("-1", "0", "1", "2", "3", "8"),
    "--fit-from": ("-5", "0", "1", "7", "100"),
    "--beta": ("nan", "-0.1", "0", "0.2", "0.3", "1e300"),
    "--trunc": ("-1", "0", "1", "64"),
    "--mgrid": ("4,16", "16,4", "", "x", "0", "4,4", "1,2,3"),
    "--c0": ("1", "0", "-1", "3/2", "x", "1/0", "1e400"),
    "--a": ("0", "-1", "1", "3/2", "nan", "1/0", "1e400", "1e-400"),
    "--fn": ("table", "indicator", "power", "other"),
    "--m": ("-1", "0", "3", "3000000000"),
    "--k": ("-1", "0", "5", str(2**62), str(2**63 - 100), str(10**20)),
    "--trials": ("-1", "0", "1", "10", "100"),
    "--seed": ("-1", "0", "7", str(2**70)),
}
COMMAND_FLAGS = {
    "alpha": ("--n", "--jmax", "--backend"),
    "growth": ("--p", "--nmax", "--fit-from"),
    "blowup": ("--p", "--beta", "--nmax", "--trunc"),
    "maximal": ("--p", "--mgrid"),
    "probe": ("--c0", "--nmax", "--jmax"),
    "sato": ("--a", "--p", "--nmax"),
    "simulate": ("--fn", "--m", "--beta", "--n", "--k", "--trials", "--seed", "--trunc"),
}


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMAND_FLAGS)))
    argv = [command]
    for flag in COMMAND_FLAGS[command]:
        argv += [flag, draw(st.sampled_from(FLAG_POOLS[flag]))]
    return argv


@given(argv=argvs())
@settings(max_examples=150, deadline=None)
def test_fuzz_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as outdir:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main([*argv, "--outdir", outdir])
    assert rc in (0, 1, 2, 3), (argv, rc)
    if rc == 1:
        assert "[FAIL]" in out.getvalue(), argv
