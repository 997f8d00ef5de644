import csv
import json

import numpy as np
import pytest

from sigma2 import cli
from sigma2 import sigma as sg
from sigma2 import spectral as sp


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_classify_json(capsys):
    code, out = run(capsys, "classify", "--lambda", "0,1,0,0")
    assert code == 0
    rec = json.loads(out)
    assert rec["schema"] == "sigma2/1"
    assert rec["stratum"] == "Lambda1"
    assert rec["partition"] == [2, 1, 1, 1]
    assert rec["rank"] == 3
    assert rec["a2"] == [0.0, 0.0]
    assert rec["gamma"] == [[0.0, 0.0], [1.0, 0.0]]


def test_classify_echoes_input(capsys):
    code, out = run(capsys, "classify", "--lambda", "0,0,0,1")
    rec = json.loads(out)
    assert rec["lambda"] == [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]
    assert rec["stratum"] == "Lambda2"


def test_sigma_value_finite(capsys):
    code, out = run(capsys, "sigma", "--a2", "0,0", "--gamma", "0,0,1,0",
                    "--u", "0.1,0,0.2,0")
    assert code == 0
    rec = json.loads(out)
    re_, im_ = rec["value"]
    assert abs(complex(re_, im_)) > 0


def test_invert_round_trip_schema(capsys):
    code, out = run(capsys, "invert", "--a2", "0.2,0.1",
                    "--gamma", "0.4,-0.2,0.5,0.3", "--U", "0.31,-0.12,0.009,0.04")
    assert code == 0
    rec = json.loads(out)
    assert len(rec["X"]) == 2 and len(rec["Y"]) == 2
    assert rec["residuals"]["curve_membership"] < 1e-8


def test_periods_json(capsys):
    code, out = run(capsys, "periods", "--a2", "0.2,0.1",
                    "--gamma", "0.4,-0.2,0.5,0.3")
    rec = json.loads(out)
    assert rec["residuals"]["legendre"] < 1e-8
    assert len(rec["T"]) == 2 and len(rec["T"][0]) == 3


def test_potential_csv(tmp_path, capsys):
    out_csv = tmp_path / "v.csv"
    code, _ = run(capsys, "potential", "--a2", "0.34", "--gamma=-1.2,0.1",
                  "--family", "V2", "--phi", "0.25",
                  "--grid", "0.02,0.98,64", "--out", str(out_csv))
    assert code == 0
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x", "re", "im"]
    assert len(rows) == 65
    assert max(abs(float(r[2])) for r in rows[1:]) < 1e-8
    sidecar = json.loads((tmp_path / "v.json").read_text())
    assert "spectrum" in sidecar and sidecar["rows"] == 64


def test_sigma_grid_csv(tmp_path, capsys):
    out_csv = tmp_path / "z.csv"
    code, _ = run(capsys, "sigma", "--a2", "0.2,0.1",
                  "--gamma", "0.4,-0.2,0.5,0.3",
                  "--grid=-0.5,0.5,12", "--out", str(out_csv))
    assert code == 0
    with open(out_csv) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["u3", "u1", "re", "im"]
    assert len(rows) == 145
    for r in rows[1:]:
        assert all(abs(float(x)) < 1e6 for x in r)
    # u3 outer, u1 inner, and each value the scalar sigma2 at its point
    g = np.linspace(-0.5, 0.5, 12)
    assert [(float(r[0]), float(r[1])) for r in rows[1:]] == [(a, b) for a in g for b in g]
    ctx = sg.context_lambda1(0.2 + 0.1j, (0.4 - 0.2j, 0.5 + 0.3j))
    for r in rows[1::13]:
        want = sg.sigma2(ctx, float(r[0]), float(r[1]))
        assert abs(complex(float(r[2]), float(r[3])) - want) <= 1e-14 * max(abs(want), 1.0)


def _csv_writer_bytes(path, header, *columns):
    """What csv.writer writes for the float columns: the reference for the
    CLI's own CSV writer."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(np.column_stack(columns).tolist())
    with open(path, "rb") as fh:
        return fh.read()


# what the target of a write holds beforehand: nothing, a file longer than
# any output written here, or a file shorter than each
PRIOR_STATES = ("absent", "longer", "shorter")


def _set_prior_state(path, prior):
    if prior == "longer":
        path.write_bytes(b"9" * 300_000)
    elif prior == "shorter":
        path.write_bytes(b"x,y\r\n")


@pytest.mark.parametrize("grid", ["-0.5,0.5,12", "-0,1,3", "-1,-0,3"])
def test_sigma_grid_csv_bytes_match_csv_writer(tmp_path, capsys, grid):
    lo, hi, n = cli._parse_grid(grid)
    g = np.linspace(lo, hi, n)
    u3, u1 = (a.ravel() for a in np.meshgrid(g, g, indexing="ij"))
    ctx = sg.context_lambda1(0.2 + 0.1j, (0.4 - 0.2j, 0.5 + 0.3j))
    val = sg.sigma2(ctx, u3, u1)
    want = _csv_writer_bytes(tmp_path / "ref.csv", ("u3", "u1", "re", "im"),
                             u3, u1, val.real, val.imag)
    for prior in PRIOR_STATES:
        out_csv = tmp_path / f"z-{prior}.csv"
        _set_prior_state(out_csv, prior)
        code, _ = run(capsys, "sigma", "--a2", "0.2,0.1",
                      "--gamma", "0.4,-0.2,0.5,0.3",
                      f"--grid={grid}", "--out", str(out_csv))
        assert code == 0
        got = out_csv.read_bytes()
        assert got == want, prior
    assert got.count(b"\r\n") == n * n + 1 and b"\n" not in got.replace(b"\r\n", b"")
    if grid == "-1,-0,3":
        # linspace ends on hi exactly, so -0.0 reaches both coordinate columns
        # (a start of -0 comes out as 0.0); its repr keeps the sign
        assert got.splitlines()[-1] == b"-0.0,-0.0,-0.0,-0.0"


def test_potential_csv_bytes_match_csv_writer(tmp_path, capsys):
    ctx = sg.context_lambda1(0.34 + 0j, (-1.2 + 0j, 0.1 + 0j))
    sample = sp.real_family(ctx, "V2", 0.25, np.linspace(0.02, 0.98, 64))
    want = _csv_writer_bytes(tmp_path / "ref.csv", ("x", "re", "im"), sample.grid,
                             sample.values.real, sample.values.imag)
    assert want.count(b"\r\n") == 65 and b"\n" not in want.replace(b"\r\n", b"")
    for prior in PRIOR_STATES:
        out_csv, out_json = tmp_path / f"v-{prior}.csv", tmp_path / f"v-{prior}.json"
        _set_prior_state(out_csv, prior)
        _set_prior_state(out_json, prior)
        code, _ = run(capsys, "potential", "--a2", "0.34", "--gamma=-1.2,0.1",
                      "--family", "V2", "--phi", "0.25",
                      "--grid", "0.02,0.98,64", "--out", str(out_csv))
        assert code == 0
        assert out_csv.read_bytes() == want, prior
        # the sidecar is the record as json.dumps gives it, with one newline
        # and nothing of the file it replaced
        side = out_json.read_bytes()
        rec = json.loads(side)
        assert side == (json.dumps(rec, indent=2, sort_keys=True) + "\n").encode()
        assert rec["rows"] == 64 and rec["csv"] == str(out_csv)


@pytest.mark.parametrize("prior", PRIOR_STATES)
@pytest.mark.parametrize("argv", [
    ["classify", "--lambda", "0,1,0,0"],
    ["periods", "--a2", "0.2,0.1", "--gamma", "0.4,-0.2,0.5,0.3"],
], ids=["classify", "periods"])
def test_out_record_bytes_match_stdout(tmp_path, capsys, argv, prior):
    # an --out record holds the bytes the command prints without --out
    _, want = run(capsys, *argv)
    out = tmp_path / "rec.json"
    _set_prior_state(out, prior)
    code, printed = run(capsys, *argv, "--out", str(out))
    assert code == 0 and printed == ""
    assert out.read_bytes() == want.encode()


@pytest.mark.parametrize("error", [OSError(28, "No space left on device"),
                                   KeyboardInterrupt()], ids=["oserror", "interrupt"])
@pytest.mark.parametrize("first", [0, 7], ids=["at-once", "after-a-write"])
def test_interrupted_rewrite_ends_short(tmp_path, monkeypatch, error, first):
    # a write that raises cuts the file to the bytes written: what is left is
    # a short file, never the new head followed by the old file's tail
    out = tmp_path / "z.csv"
    out.write_bytes(b"u3,u1,re,im\r\n" + b"0.1,0.2,0.3,0.4\r\n" * 50)
    real_write, calls = cli.os.write, []

    def write(fd, data):
        calls.append(len(data))
        if len(calls) == 1 and first:
            return real_write(fd, data[:first])
        raise error

    monkeypatch.setattr(cli.os, "write", write)
    text = "u3,u1,re,im\r\n-0.5,-0.5,1.0,0.0\r\n"
    with pytest.raises(type(error)):
        cli._write_file(str(out), text)
    monkeypatch.undo()
    assert out.read_bytes() == text[:first].encode()


def test_potential_default_output(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, "potential", "--a2", "0.34", "--gamma=-1.2,0.1",
                    "--grid", "0.02,0.98,16")
    assert code == 0
    assert json.loads(out)["csv"] == "potential.csv"
    assert len((tmp_path / "potential.csv").read_bytes().splitlines()) == 17
    sidecar = json.loads((tmp_path / "potential.json").read_text())
    assert sidecar["rows"] == 16 and sidecar["csv"] == "potential.csv"


def test_sigma_grid_without_out_fails_before_evaluating(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(sg, "sigma2", lambda *a, **k: calls.append(a))
    code = cli.main(["sigma", "--a2", "0.2,0.1", "--gamma", "0.4,-0.2,0.5,0.3",
                     "--grid=-0.5,0.5,40"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("usage error: ") and "--out" in err
    assert calls == []


def test_usage_errors(capsys):
    assert run(capsys, "classify", "--lambda", "1,2,3")[0] == 1
    assert run(capsys, "sigma", "--a2", "0,0")[0] == 1
    assert run(capsys, "potential", "--a2", "0.3", "--gamma=-1.2,0.1",
               "--grid", "0.5,0.1,8")[0] == 1
    assert run(capsys, "verify", "--suite", "nonsense")[0] == 1


def test_degenerate_exit_code(capsys):
    code, out = run(capsys, "sigma", "--a2", "0", "--gamma=-3,2", "--u", "0.1,0.1")
    assert code == 2
    rec = json.loads(out)
    assert rec["error"] == "DegenerateCurve"


def test_verify_subset_and_determinism(capsys):
    code, out1 = run(capsys, "verify", "--suite", "algebra,trig_limit",
                     "--seed", "7", "--samples", "15")
    assert code == 0
    _, out2 = run(capsys, "verify", "--suite", "algebra,trig_limit",
                  "--seed", "7", "--samples", "15")
    assert out1 == out2
    payload = out1[out1.index("{"):]
    rec = json.loads(payload)
    assert rec["all_passed"] is True
    assert set(rec["suites"]) == {"exact_algebra", "trigonometric_limit"}


def test_verify_record_lists_every_bound(capsys):
    code, out = run(capsys, "verify", "--suite", "spectral", "--samples", "1")
    assert code == 0
    rec = json.loads(out[out.index("{"):])
    spectral = rec["suites"]["spectral"]
    assert spectral["thresholds"] == {"eigen": 1e-6, "kdv": 1e-5,
                                      "reality_max_imag": 1e-8, "bloch": 1e-6,
                                      "m2_m3_gap": 1e-12, "unsampled": 0}
    assert spectral["refused"] == spectral["unsampled"] == 0
    assert "m2_m3_gap=0 (<1e-12)" in out[:out.index("{")]
    assert "refused=0, unsampled=0 (=0)" in out[:out.index("{")]


def test_ambiguous_exit_code(capsys):
    import numpy as np
    d = 1.6e-3
    roots = [1.0, 1.0 + d, -0.5, -0.5 - d, 0.0]
    roots[-1] = -sum(roots[:-1])
    coeffs = np.poly(roots)
    lam = ",".join(repr(float(c)) for c in coeffs[2:])
    code, out = run(capsys, "classify", "--lambda=" + lam)
    assert code == 3
    assert json.loads(out)["error"] == "AmbiguousClassification"


def test_verify_rejects_nonpositive_samples(capsys):
    for n in ("0", "-3"):
        code = cli.main(["verify", "--suite", "heat", "--samples", n])
        out, err = capsys.readouterr()
        assert code == 1 and out == ""
        assert err.startswith("usage error: --samples")


@pytest.mark.parametrize("value", ["x7", "-1"])
def test_bad_seed_is_usage_error(capsys, value):
    code = cli.main(["verify", "--suite", "trig_limit", "--seed", value])
    assert code == 1
    assert capsys.readouterr().err.startswith("usage error: ")


def test_repeated_suite_runs_once(capsys, monkeypatch):
    calls = []

    def in_process(keys, seed, samples=None):
        calls.extend(keys)
        return [cli.vf.run_suite(key, seed, samples) for key in keys]

    monkeypatch.setattr(cli.vf, "run_suites", in_process)
    code, out = run(capsys, "verify", "--suite", "trig_limit,trig_limit",
                    "--seed", "1")
    assert code == 0
    assert calls == ["trig_limit"]
    lines = out[:out.index("{")].splitlines()
    assert len(lines) == 1 and lines[0].startswith("[PASS] trigonometric_limit")


@pytest.mark.parametrize("argv", [
    ("sigma", "--a2", "nan", "--gamma", "0.4,0.5", "--u", "0.1,0.2"),
    ("classify", "--lambda", "inf,0,0,0"),
    ("sigma", "--a2", "0.2,0.1", "--gamma", "0.4,-0.2,0.5,0.3", "--u", "nan,0.2"),
    ("potential", "--a2", "0.54", "--gamma=-1.2,0.1", "--grid", "0.1,0.9,x"),
    ("potential", "--a2", "0.54", "--gamma=-1.2,0.1", "--phi", "nan"),
])
def test_malformed_or_nonfinite_input_is_usage_error(capsys, argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("usage error: ")


def test_parser_built_once_and_keeps_no_state(capsys):
    argvs = [
        ("sigma", "--a2", "0.2,0.1", "--gamma", "0.4,-0.2,0.5,0.3",
         "--u", "0.1,0.2", "--normalized"),
        ("sigma", "--a2", "0.2,0.1", "--gamma", "0.4,-0.2,0.5,0.3", "--u", "0.1,0.2"),
        ("classify", "--lambda", "0,1,0,0"),
        ("verify", "--suite", "trig_limit", "--seed", "3"),
        ("verify", "--suite", "trig_limit"),
    ]
    separate = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        separate.append(run(capsys, *argv))
    cli.build_parser.cache_clear()
    successive = [run(capsys, *argv) for argv in argvs]
    assert successive == separate
    assert json.loads(successive[0][1])["normalized"] is True
    assert json.loads(successive[1][1])["normalized"] is False
    info = cli.build_parser.cache_info()
    assert info.misses == 1 and info.hits == len(argvs) - 1


def test_closed_stdout_exits_141():
    # the reader closes the pipe before the record is written, as
    # `sigma2 verify | head -1` can: no traceback, the SIGPIPE exit code
    import os
    import subprocess
    import sys
    src = os.path.dirname(os.path.dirname(cli.__file__))
    p = subprocess.Popen([sys.executable, "-m", "sigma2.cli", "verify",
                          "--suite", "gradient", "--samples", "2"],
                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         env={**os.environ, "PYTHONPATH": src})
    p.stdout.close()
    err = p.stderr.read().decode()
    p.stderr.close()
    assert p.wait() == 141
    assert "BrokenPipeError" not in err


def test_parser_not_built_at_import():
    import os
    import subprocess
    import sys
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = ("import sigma2.cli as c; "
            "assert c.build_parser.cache_info().currsize == 0")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def _assert_sigma_refused(u, message):
    """`sigma2 sigma --u u` on the Lambda1 test curve exits 2 with one JSON
    error record and nothing on stderr (no numpy overflow warning)."""
    import os
    import subprocess
    import sys
    src = os.path.dirname(os.path.dirname(cli.__file__))
    p = subprocess.run([sys.executable, "-m", "sigma2.cli", "sigma", "--a2", "0.1,0.1",
                        "--gamma", "0,0,1,0", "--u", u],
                       capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": src})
    assert p.returncode == 2
    assert p.stderr == ""
    assert json.loads(p.stdout) == {
        "schema": "sigma2/1", "error": "NumericalFailure", "message": message}


def test_overflowing_sigma_refuses_without_warning():
    # far from u = 0 the Gaussian prefactor of sigma2 leaves the double range
    # with the sigma_w factors
    _assert_sigma_refused("1e5,0,0,0", "sigma_w: value overflows double precision")


def test_sigma_past_the_double_range_at_w_zero_refuses_without_warning():
    # u1 = (3/5) wp(alpha) u3 makes W = 0, so the sigma_w factors stay
    # finite while the prefactor and the bracket overflow: the refusal is the
    # error record, not a NaN value
    _assert_sigma_refused("1000,0,99.99999999999946,100.00000000000021",
                          "sigma2: value overflows double precision")


@pytest.mark.parametrize("argv", [
    ["classify", "--lambda", "1e300,0,0,0"],
    ["classify", "--lambda", "1e-300,1e-300,0,0"],
    ["sigma", "--a2", "1e100", "--gamma", "1,1", "--u", "0.1,0.1"],
    ["sigma", "--a2", "1e60", "--gamma", "1,1e250", "--u", "0.1,0.1"],
], ids=["classify-huge", "classify-tiny", "sigma-huge-a2", "sigma-huge-gamma6"])
def test_double_range_ends_in_one_record(argv):
    # a weight-scale power or a chart value past the double range is a
    # NumericalFailure record (exit 2), not a traceback; exit 0 is accepted
    # for when such points classify
    import os
    import subprocess
    import sys
    src = os.path.dirname(os.path.dirname(cli.__file__))
    p = subprocess.run([sys.executable, "-m", "sigma2.cli", *argv],
                       capture_output=True, text=True,
                       env={**os.environ, "PYTHONPATH": src})
    assert p.returncode in (0, 2)
    assert p.stderr == ""
    rec = json.loads(p.stdout)
    assert rec["schema"] == "sigma2/1"
    assert p.returncode == 0 or rec["error"] == "NumericalFailure"


@pytest.mark.parametrize("argv", [
    ["classify", "--lambda", "0,1,0,0"],
    ["sigma", "--a2", "0.2,0.1", "--gamma", "0.4,-0.2,0.5,0.3", "--grid=-0.5,0.5,3"],
], ids=["classify", "sigma-grid"])
@pytest.mark.parametrize("target", ["pipe", "fifo"])
def test_out_to_a_stream_is_written_not_truncated(tmp_path, argv, target):
    # `--out /dev/stdout` with stdout a pipe or a FIFO: a stream cannot be
    # truncated, so the output is only written; the bytes are the file's
    # bytes followed by what the command prints
    import os
    import subprocess
    import sys
    import threading
    src = os.path.dirname(os.path.dirname(cli.__file__))
    cmd = [sys.executable, "-m", "sigma2.cli", *argv]
    env = {**os.environ, "PYTHONPATH": src}
    ref = tmp_path / "ref.out"
    fresh = subprocess.run([*cmd, "--out", str(ref)], capture_output=True,
                           env=env, timeout=60)
    assert fresh.returncode == 0
    want = ref.read_bytes() + fresh.stdout.replace(
        json.dumps(str(ref)).encode(), b'"/dev/stdout"')
    cmd += ["--out", "/dev/stdout"]
    if target == "pipe":
        p = subprocess.run(cmd, capture_output=True, env=env, timeout=60)
        code, got = p.returncode, p.stdout
    else:
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        chunks = []

        def read():
            with open(fifo, "rb") as fh:
                chunks.append(fh.read())

        reader = threading.Thread(target=read)
        reader.start()
        with open(fifo, "wb") as fh:    # waits for the reader to open its end
            p = subprocess.run(cmd, stdout=fh, stderr=subprocess.PIPE, env=env,
                               timeout=60)
        reader.join(timeout=60)
        assert not reader.is_alive()
        code, got = p.returncode, chunks[0]
    assert p.stderr == b""
    assert code == 0
    assert got == want


OUT_COMMANDS = [
    (["classify", "--lambda", "0,1,0,0"], "x.json", "strata", "classify"),
    (["sigma", "--a2", "0.2,0.1", "--gamma", "0.4,-0.2,0.5,0.3", "--grid=-0.5,0.5,3"],
     "z.csv", "sigma", "sigma2"),
    (["potential", "--a2", "0.54", "--gamma=-1.2,0.1"], "p.csv", "spectral",
     "real_family"),
    (["verify"], "v.json", "verify", "run_suites"),
]


@pytest.mark.parametrize("argv,name,module,work", OUT_COMMANDS,
                         ids=[a[0] for a, *_ in OUT_COMMANDS])
def test_out_in_a_missing_directory_is_a_usage_error(tmp_path, capsys, monkeypatch,
                                                     argv, name, module, work):
    # refused before the grid, the family or the suites are evaluated: one
    # usage-error line, nothing printed and no file made
    import importlib
    calls = []
    monkeypatch.setattr(importlib.import_module(f"sigma2.{module}"), work,
                        lambda *a, **k: calls.append(a))
    target = tmp_path / "missing" / name
    code = cli.main([*argv, "--out", str(target)])
    out, err = capsys.readouterr()
    assert code == 1 and out == "" and calls == []
    assert err == f"usage error: --out {target}: no directory {target.parent}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["classify", "--lambda", "0,1,0,0"],
    ["sigma", "--a2", "0.2,0.1", "--gamma", "0.4,-0.2,0.5,0.3", "--grid=-0.5,0.5,3"],
], ids=["classify", "sigma-grid"])
def test_out_that_cannot_be_opened_is_a_usage_error(tmp_path, capsys, argv):
    # the directory exists but the path is a directory: the OSError of the
    # write is the usage error
    code = cli.main([*argv, "--out", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith(f"usage error: --out {tmp_path}: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []
