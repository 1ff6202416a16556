import json
import math
import os
import subprocess
import sys

import pytest

import chordscan
from chordscan import reading, recognition
from chordscan.cli import main
from chordscan.sampling import SamplerConfig


def run_python(*args, cwd):
    """Run ``python *args`` in a child process from ``cwd``.

    The child imports the same ``chordscan`` as this test process: the
    absolute directory holding the package goes first on its
    ``PYTHONPATH``, so a relative entry such as ``src`` cannot go astray
    when ``cwd`` differs from the directory the suite was started in.
    """
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(chordscan.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )


def run_cli(*argv, cwd):
    """Run ``python -m chordscan.cli`` in a child process from ``cwd``."""
    return run_python("-m", "chordscan.cli", *argv, cwd=cwd)


@pytest.mark.parametrize("module", ["chordscan.chords", "chordscan"])
def test_import_is_clean_and_light(module, tmp_path):
    # chords imports batch, never the reverse; scipy is a test-only
    # dependency, and importing it at load time costs about a second
    code = f"import sys, {module}; assert 'scipy' not in sys.modules"
    proc = run_python("-c", code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_no_command_usage_error(tmp_path):
    proc = run_cli(cwd=tmp_path)
    assert proc.returncode == 2


def test_unknown_flag_usage_error(tmp_path):
    proc = run_cli("estimate", "--shape", "disk", "--frobnicate", cwd=tmp_path)
    assert proc.returncode == 2


def test_lines_zero_rejected(tmp_path):
    proc = run_cli("estimate", "--shape", "disk", "--lines", "0", cwd=tmp_path)
    assert proc.returncode == 2


def test_unknown_shape_runtime_error(tmp_path):
    proc = run_cli("estimate", "--shape", "nope.json", cwd=tmp_path)
    assert proc.returncode == 1
    assert "estimate" in proc.stderr


def test_malformed_shape_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"rings": [[[0,0],[1,0]]]}')
    proc = run_cli("estimate", "--shape", "bad.json", cwd=tmp_path)
    assert proc.returncode == 1
    assert "estimate" in proc.stderr


def test_estimate_disk_within_one_percent_of_pi(tmp_path):
    assert (
        main(
            [
                "estimate",
                "--shape",
                "disk",
                "--lines",
                "100000",
                "--seed",
                "7",
                "--out",
                str(tmp_path / "rep.json"),
            ]
        )
        == 0
    )
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert abs(rep["area_hat"] - math.pi) / math.pi < 0.01
    assert rep["N"] == 100000
    assert rep["rejected_lines"] == 0


def test_estimate_from_shape_file(tmp_path):
    from chordscan import shapes
    from chordscan.geometry import save_shape

    save_shape(shapes.disk(), tmp_path / "disk.json")
    out = tmp_path / "rep.json"
    assert (
        main(
            [
                "estimate",
                "--shape",
                str(tmp_path / "disk.json"),
                "--lines",
                "20000",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    rep = json.loads(out.read_text())
    assert abs(rep["area_hat"] - math.pi) / math.pi < 0.02


def test_estimate_deterministic_artifacts(tmp_path):
    for name in ("a.json", "b.json"):
        main(
            [
                "estimate",
                "--shape",
                "square",
                "--lines",
                "5000",
                "--seed",
                "3",
                "--out",
                str(tmp_path / name),
            ]
        )
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_estimate_billiard_sampler(tmp_path):
    assert (
        main(
            [
                "estimate",
                "--shape",
                "square",
                "--sampler",
                "billiard-cos",
                "--lines",
                "20000",
                "--seed",
                "11",
                "--out",
                str(tmp_path / "rep.json"),
            ]
        )
        == 0
    )
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert abs(rep["area_hat"] - 1.0) < 0.05


def test_dump_observations_rows(tmp_path):
    main(
        [
            "estimate",
            "--shape",
            "square",
            "--lines",
            "500",
            "--seed",
            "1",
            "--out",
            str(tmp_path / "rep.json"),
            "--dump-observations",
            str(tmp_path / "obs.csv"),
        ]
    )
    lines = (tmp_path / "obs.csv").read_text().strip().splitlines()
    assert lines[0] == "theta,p,k,L1,L3,chords"
    assert len(lines) == 501
    # a hitting line carries its chord list
    hit = next(l for l in lines[1:] if l.split(",")[2] != "0")
    assert hit.split(",")[5] != ""


def test_estimate_workers_flag(tmp_path):
    assert (
        main(
            [
                "estimate",
                "--shape",
                "square",
                "--lines",
                "4000",
                "--seed",
                "5",
                "--workers",
                "2",
                "--out",
                str(tmp_path / "rep.json"),
            ]
        )
        == 0
    )
    rep = json.loads((tmp_path / "rep.json").read_text())
    assert rep["N"] == 4000
    assert abs(rep["area_hat"] - 1.0) < 0.1


def test_calibrate_classify_roundtrip(tmp_path):
    dict_path = tmp_path / "dict.json"
    assert (
        main(
            [
                "calibrate",
                "--shape",
                "disk",
                "--shape",
                "square",
                "--lines",
                "800",
                "--replicates",
                "25",
                "--seed",
                "2",
                "--out",
                str(dict_path),
            ]
        )
        == 0
    )
    entries = recognition.load_dictionary(dict_path)
    assert [e.name for e in entries] == ["disk", "square"]
    out = tmp_path / "post.json"
    assert (
        main(
            [
                "classify",
                "--shape",
                "square",
                "--dict",
                str(dict_path),
                "--lines",
                "1500",
                "--seed",
                "4",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    doc = json.loads(out.read_text())
    assert doc["top"] == "square"
    assert doc["should_stop"] is True


def test_landscape_csv_and_svg(tmp_path):
    dict_path = tmp_path / "dict.json"
    main(
        [
            "calibrate",
            "--shape",
            "disk",
            "--shape",
            "square",
            "--lines",
            "600",
            "--replicates",
            "20",
            "--seed",
            "6",
            "--out",
            str(dict_path),
        ]
    )
    out = tmp_path / "land.csv"
    svg = tmp_path / "land.svg"
    assert (
        main(
            [
                "landscape",
                "--dict",
                str(dict_path),
                "--lines",
                "500",
                "--grid",
                "25",
                "--out",
                str(out),
                "--svg",
                str(svg),
            ]
        )
        == 0
    )
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "p,a,label"
    assert len(lines) == 1 + 25 * 25
    assert svg.read_text().startswith("<svg")
    assert (tmp_path / "land.svg.entries.svg").exists()


def test_landscape_explicit_grid(tmp_path):
    dict_path = tmp_path / "dict.json"
    main(
        [
            "calibrate", "--shape", "disk", "--lines", "500", "--replicates", "15",
            "--seed", "8", "--out", str(dict_path),
        ]
    )
    out = tmp_path / "land.csv"
    assert (
        main(
            [
                "landscape", "--dict", str(dict_path), "--lines", "300",
                "--grid", "4:9:2:5:11", "--out", str(out),
            ]
        )
        == 0
    )
    rows = out.read_text().strip().splitlines()[1:]
    assert len(rows) == 121


def test_converge_square_exponent(tmp_path):
    out = tmp_path / "conv.csv"
    assert (
        main(
            [
                "converge",
                "--shape",
                "square",
                "--replicates",
                "200",
                "--grid",
                "100,1000,10000",
                "--seed",
                "10",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "N,sigma_A,sigma_P"
    assert len(lines) == 4
    import numpy as np

    from chordscan.estimators import fit_power

    data = [tuple(map(float, l.split(","))) for l in lines[1:]]
    n, sa, sp = zip(*data)
    _, expo = fit_power(np.array(n), np.array(sa))
    assert -0.55 < expo < -0.45


def test_letters_csv(tmp_path):
    out = tmp_path / "letters.csv"
    svg = tmp_path / "letters.svg"
    assert main(["letters", "--out", str(out), "--svg", str(svg)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "letter,area_cells,perimeter_cells"
    assert len(lines) == 27
    table = {l.split(",")[0]: tuple(map(float, l.split(",")[1:])) for l in lines[1:]}
    assert table["I"] == (5.0, 12.0)
    assert table["L"] == (7.0, 16.0)
    assert table["O"] == (12.0, 24.0)
    assert svg.exists()


def test_read_global_prints_word(tmp_path, capsys):
    words = ["FREEDOM", "PEOPLES", "NATIONS", "MANKIND", "DIGNITY",
             "JUSTICE", "RESPECT", "SECURITY", "PROGRESS", "TOLERANCE"]
    entries = reading.calibrate_words(
        words, m_lines=800, replicates=12, config=SamplerConfig(seed=20)
    )
    dict_path = tmp_path / "words.json"
    recognition.save_dictionary(entries, dict_path)
    out = tmp_path / "read.json"
    rc = main(
        [
            "read",
            "--word",
            "FREEDOM",
            "--strategy",
            "global",
            "--dict",
            str(dict_path),
            "--seed",
            "3",
            "--out",
            str(out),
        ]
    )
    captured = capsys.readouterr()
    assert rc == 0
    assert captured.out.strip().splitlines()[-1] == "FREEDOM"
    doc = json.loads(out.read_text())
    assert doc["text"] == "FREEDOM"


def test_converge_without_chords_fails_cleanly(tmp_path):
    proc = run_cli(
        "converge", "--shape", "statue", "--grid", "1,10,100", "--replicates", "5",
        "--seed", "1", "--out", "conv.csv", cwd=tmp_path,
    )
    assert proc.returncode == 1
    assert "chordscan converge: error: no chord" in proc.stderr
    assert not (tmp_path / "conv.csv").exists()
