import importlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import chordscan
from chordscan import reading, recognition, shapes
from chordscan.cli import main
from chordscan.explore import DEFAULT_CHUNK, explore
from chordscan.sampling import SamplerConfig, arena_for, billiard_lines, sample_iur_batch


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


@pytest.mark.parametrize("module", ["chordscan.batch", "chordscan"])
def test_import_is_clean_and_light(module, tmp_path):
    # the kernel imports only numpy, geometry and sampling; scipy is a test-only
    # dependency, and importing it at load time costs about a second
    code = f"import sys, {module}; assert 'scipy' not in sys.modules"
    proc = run_python("-c", code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_lines_are_observed_only_through_the_kernel():
    # the per-line path is retired: batch.observe_segments is the one way
    # to observe a line
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("chordscan.chords")
    retired = ("crossings", "observe", "geometric_function", "LineObservation", "CrossingEvent",
               "DegenerateLineError", "ArenaTooSmallError")
    assert not [name for name in retired if hasattr(chordscan, name)]


def test_no_command_usage_error(tmp_path):
    proc = run_cli(cwd=tmp_path)
    assert proc.returncode == 2


def test_unknown_flag_usage_error(tmp_path):
    proc = run_cli("estimate", "--shape", "disk", "--frobnicate", cwd=tmp_path)
    assert proc.returncode == 2


def test_lines_zero_rejected(tmp_path):
    proc = run_cli("estimate", "--shape", "disk", "--lines", "0", cwd=tmp_path)
    assert proc.returncode == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("estimate", "--shape", "square", "--arena-scale", "0.9"),
        ("estimate", "--shape", "square", "--arena-scale", "inf"),
        ("converge", "--shape", "disk", "--arena-scale", "nan"),
        ("classify", "--shape", "square", "--dict", "d.json", "--threshold", "1.5"),
        ("landscape", "--dict", "d.json", "--threshold", "nan"),
        ("read", "--word", "FREEDOM", "--dict", "d.json", "--threshold", "-0.5"),
        ("estimate", "--shape", "square", "--seed", "-1"),
    ],
    ids=["scale-0.9", "scale-inf", "scale-nan", "classify-1.5", "landscape-nan", "read--0.5",
         "seed--1"],
)
def test_out_of_range_flag_usage_error(tmp_path, monkeypatch, capsys, argv):
    # an arena scale below 1 or not finite, a threshold outside [0, 1], or a
    # negative seed is refused while parsing, before any file is read or written
    (tmp_path / "d.json").write_text("[]")
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "must be" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["d.json"]


def test_dump_with_workers_usage_error(tmp_path):
    # workers explore substreams, not the one stream a dump lists
    proc = run_cli(
        "estimate", "--shape", "square", "--workers", "2", "--dump-observations", "d.csv",
        cwd=tmp_path,
    )
    assert proc.returncode == 2
    assert list(tmp_path.iterdir()) == []


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


ENTRY_A = '{"name": "a", "p_ref": 4.0, "a_ref": 1.0, "sigma0_a": 1.0, "sigma0_p": 1.0}'


@pytest.mark.parametrize(
    "argv, text",
    [
        (("classify", "--shape", "square", "--dict", "in.json"), "[1]"),
        (("landscape", "--dict", "in.json", "--grid", "5"), "[1]"),
        (("classify", "--shape", "square", "--dict", "in.json"), f"[{ENTRY_A}, {ENTRY_A}]"),
        (("classify", "--shape", "square", "--dict", "in.json"), ENTRY_A.replace("4.0", "null")),
        (("estimate", "--shape", "in.json"), '{"rings": 5}'),
        (("estimate", "--shape", "in.json"), '{"rings": [[1, 2]]}'),
    ],
    ids=["classify-int-entry", "landscape-int-entry", "classify-repeated-name", "classify-null",
         "rings-int", "rings-pair"],
)
def test_malformed_file_is_one_error_line(tmp_path, monkeypatch, capsys, argv, text):
    # a dictionary entry that is not an object, a name given twice, a value
    # that is not a number, or rings that are not lists of (x, y) vertices:
    # one error line, exit code 1, and no artifact
    (tmp_path / "in.json").write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--lines", "200"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"chordscan {argv[0]}: error: ") and err.count("\n") == 1, err
    assert [p.name for p in tmp_path.iterdir()] == ["in.json"]


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


def test_dump_rows_are_the_drawn_lines():
    # each dumped line is (theta, p) as its sampler drew it, bit for bit, over
    # two takes, a billiard chain resuming across them; no line is rejected,
    # so the rows are the draws
    shape = shapes.statue()
    arena = arena_for(shape)
    for mode in ("iur", "billiard-cos"):
        rows = []
        acc = explore(shape, DEFAULT_CHUNK + 3000, SamplerConfig(mode, seed=5), dump_rows=rows)
        assert acc.rejected == 0
        rng = np.random.default_rng(5)
        if mode == "iur":
            draws = [sample_iur_batch(rng, arena, n) for n in (DEFAULT_CHUNK, 3000)]
        else:
            first = billiard_lines(rng, arena, DEFAULT_CHUNK, mode)
            draws = [first, billiard_lines(rng, arena, 3000, mode, first[2])]
        for col in (0, 1):
            want = np.concatenate([d[col] for d in draws])
            assert np.array_equal(np.array([row[col] for row in rows]), want), (mode, col)


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


def test_classify_non_finite_dictionary_is_error(tmp_path, capsys):
    dict_path = tmp_path / "dict.json"
    dict_path.write_text(
        '[{"name": "disk", "p_ref": NaN, "a_ref": 3.14, "sigma0_a": 1.0, "sigma0_p": 1.0}]'
    )
    out = tmp_path / "post.json"
    rc = main(["classify", "--shape", "disk", "--dict", str(dict_path), "--lines", "500",
               "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("chordscan classify: error: ")
    assert not out.exists()


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


@pytest.mark.parametrize("grid", ["0", "1:2:3:4:0"])
def test_landscape_empty_grid_is_error(tmp_path, capsys, grid):
    dict_path = tmp_path / "dict.json"
    dict_path.write_text(
        '[{"name": "disk", "p_ref": 6.28, "a_ref": 3.14, "sigma0_a": 1.0, "sigma0_p": 1.0}]'
    )
    out = tmp_path / "land.csv"
    rc = main(["landscape", "--dict", str(dict_path), "--grid", grid, "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("chordscan landscape: error: ")
    assert not out.exists()


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


def test_read_local_prints_word(tmp_path, capsys):
    entries = reading.calibrate_letters(m_lines=800, replicates=30, config=SamplerConfig(seed=21))
    dict_path = tmp_path / "letters.json"
    recognition.save_dictionary(entries, dict_path)
    out = tmp_path / "read.json"
    rc = main(
        [
            "read",
            "--word",
            "FREEDOM",
            "--strategy",
            "local",
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
    assert len(doc["per_letter_n"]) == 7


def test_read_local_reports_censored_slots(tmp_path, capsys):
    # 60 lines give each of the 7 slots 8 lines, fewer than the warm-up, so
    # no slot can stop on a label
    entries = reading.calibrate_letters(m_lines=100, replicates=10, config=SamplerConfig(seed=21))
    dict_path = tmp_path / "letters.json"
    recognition.save_dictionary(entries, dict_path)
    out = tmp_path / "read.json"
    rc = main(
        ["read", "--word", "FREEDOM", "--strategy", "local", "--dict", str(dict_path),
         "--lines", "60", "--out", str(out)]
    )
    captured = capsys.readouterr()
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["censored"] and True in doc["per_letter_censored"]
    assert len(doc["per_letter_censored"]) == 7
    assert captured.out.strip().splitlines()[-1] == doc["text"]
    err = captured.err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("read: censored: ")
    for i, c in enumerate("FREEDOM"):
        assert (f"slot {i} ({c})" in err[0]) == doc["per_letter_censored"][i]
    # a whole-word read has no slots; its note names the word
    rc = main(
        ["read", "--word", "O", "--strategy", "global", "--dict", str(dict_path),
         "--lines", "10", "--out", str(out)]
    )
    assert rc == 0 and json.loads(out.read_text())["censored"]
    assert capsys.readouterr().err == "read: censored: the word did not clear the threshold\n"


def test_converge_without_chords_fails_cleanly(tmp_path):
    # all 60 first lines hit the statue with probability 1.5e-12
    proc = run_cli(
        "converge", "--shape", "statue", "--grid", "1,10,100", "--replicates", "60",
        "--seed", "1", "--out", "conv.csv", cwd=tmp_path,
    )
    assert proc.returncode == 1
    assert "chordscan converge: error: no chord" in proc.stderr
    assert not (tmp_path / "conv.csv").exists()


@pytest.mark.parametrize("grid", [",", "0,100", "100,-5", "100,100"])
def test_converge_bad_grid_fails_cleanly(tmp_path, grid):
    # an empty grid, an N below 1, or a single distinct N fitted twice
    proc = run_cli(
        "converge", "--shape", "disk", "--grid", grid, "--replicates", "3",
        "--out", "conv.csv", cwd=tmp_path,
    )
    assert proc.returncode == 1
    assert "chordscan converge: error: " in proc.stderr
    assert "Traceback" not in proc.stderr
    assert not (tmp_path / "conv.csv").exists()
