import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from qimatch import cli, pipeline
from qimatch.cli import EXIT_INFEASIBLE, EXIT_OK, EXIT_PARSE, EXIT_USAGE, build_parser, main
from qimatch.conflict import MatchParams
from qimatch.detector import DetectorParams
from qimatch.qubo import read_qubo
from qimatch.pipeline import SyntheticSpec, read_graph
from qimatch.solvers import AnnealSchedule

ROOT = Path(__file__).resolve().parent.parent


def write_blob_pgm(path, size=96, centers=((30, 30), (66, 60))):
    yy, xx = np.mgrid[0:size, 0:size].astype(float)
    img = np.zeros((size, size))
    for cx, cy in centers:
        img += np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * 3.0**2))
    gray = (np.clip(img, 0, 1) * 255).astype(np.uint8)
    header = f"P5\n{size} {size}\n255\n".encode()
    path.write_bytes(header + gray.tobytes())


def test_detect_command(tmp_path):
    pgm = tmp_path / "img.pgm"
    out = tmp_path / "graph.json"
    write_blob_pgm(pgm)
    rc = main(["detect", str(pgm), "-o", str(out),
               "--sigma0", "1.8", "--threshold", "0.01", "--max-points", "4"])
    assert rc == EXIT_OK
    g = read_graph(out)
    assert len(g) >= 2


def test_gen_and_match(tmp_path):
    prefix = str(tmp_path / "pair")
    assert main(["gen", "--inliers", "6", "--outliers", "2", "--seed", "4",
                 "--rotation", "0.5", "--scale", "1.2", "-o", prefix]) == EXIT_OK
    out = tmp_path / "result.json"
    rc = main(["match", f"{prefix}_1.json", f"{prefix}_2.json",
               "--tfeat", "0.95", "--solver", "bnb", "-o", str(out)])
    assert rc == EXIT_OK
    result = json.loads(out.read_text())
    truth = json.loads((tmp_path / "pair_truth.json").read_text())
    assert result["proven_optimal"] is True
    got = {tuple(p) for p in result["pairs"]}
    assert {tuple(p) for p in truth["pairs"]} <= got


def test_export_qubo_and_solve(tmp_path):
    prefix = str(tmp_path / "pair")
    main(["gen", "--inliers", "5", "--outliers", "1", "--seed", "8", "-o", prefix])
    qfile = tmp_path / "inst.qubo"
    rc = main(["export-qubo", f"{prefix}_1.json", f"{prefix}_2.json",
               "--tfeat", "0.9", "-o", str(qfile)])
    assert rc == EXIT_OK
    q = read_qubo(qfile.read_text())
    labels = json.loads((tmp_path / "inst.qubo.labels.json").read_text())
    assert len(labels) == q.n
    afile = tmp_path / "assign.txt"
    rc = main(["solve", str(qfile), "--solver", "exact", "-o", str(afile)])
    assert rc == EXIT_OK
    bits = [int(line) for line in afile.read_text().split()]
    assert len(bits) == q.n
    assert sum(bits) >= 1  # some matches selected on this easy instance


def test_export_qubo_without_candidates(tmp_path):
    prefix = str(tmp_path / "pair")
    main(["gen", "--inliers", "0", "--outliers", "2", "--seed", "1", "-o", prefix])
    qfile = tmp_path / "inst.qubo"
    rc = main(["export-qubo", f"{prefix}_1.json", f"{prefix}_2.json",
               "--tfeat", "0.99", "-o", str(qfile)])
    assert rc == EXIT_OK
    assert qfile.read_text() == "p qubo 0 0 0 0\n"
    assert json.loads((tmp_path / "inst.qubo.labels.json").read_text()) == {}
    for solver in ("exact", "sa"):
        afile = tmp_path / f"{solver}.txt"
        assert main(["solve", str(qfile), "--solver", solver, "-o", str(afile)]) == EXIT_OK
        assert afile.read_text() == ""


def test_solve_ignores_term_line_order(tmp_path):
    # 0000 and 0111 tie exactly in real arithmetic; summed in file order
    # the float energies must not depend on how the file lists its terms
    lines = ["0 0 0.1", "1 1 0.3", "2 2 0.1", "0 2 0.4", "0 3 0.3", "1 2 -0.3", "2 3 -0.1"]
    outputs = []
    for k, terms in enumerate((lines, lines[::-1])):
        qfile = tmp_path / f"{k}.qubo"
        qfile.write_text("\n".join(["p qubo 0 4 3 4", *terms]) + "\n")
        afile = tmp_path / f"{k}.txt"
        assert main(["solve", str(qfile), "--solver", "exact", "-o", str(afile)]) == EXIT_OK
        outputs.append(afile.read_text())
    assert outputs[0] == outputs[1]


def test_solve_sa_deterministic(tmp_path):
    prefix = str(tmp_path / "pair")
    main(["gen", "--inliers", "4", "--outliers", "1", "--seed", "2", "-o", prefix])
    qfile = tmp_path / "inst.qubo"
    main(["export-qubo", f"{prefix}_1.json", f"{prefix}_2.json", "--tfeat", "0.9",
          "-o", str(qfile)])
    a1 = tmp_path / "a1.txt"
    a2 = tmp_path / "a2.txt"
    main(["solve", str(qfile), "--solver", "sa", "--seed", "12", "-o", str(a1)])
    main(["solve", str(qfile), "--solver", "sa", "--seed", "12", "-o", str(a2)])
    assert a1.read_text() == a2.read_text()


def test_export_dot(tmp_path):
    prefix = str(tmp_path / "pair")
    main(["gen", "--inliers", "4", "--outliers", "0", "--seed", "6", "-o", prefix])
    dot = tmp_path / "gc.dot"
    rc = main(["export-dot", f"{prefix}_1.json", f"{prefix}_2.json",
               "--tfeat", "0.9", "-o", str(dot)])
    assert rc == EXIT_OK
    assert dot.read_text().startswith("graph conflict {")


def test_usage_error_exit_code(capsys):
    assert main(["match", "only-one-arg"]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: the following arguments are required: graph2, -o/--output\n"
    )
    # an unrecognised flag is named, even where a required argument is also missing
    for argv in (["--bogus"], ["match", "a.json", "--bogus", "-o", "x"]):
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == "error: unrecognized arguments: --bogus\n"


def test_parse_error_exit_code(tmp_path):
    out = tmp_path / "a.txt"
    bad = tmp_path / "bad.qubo"
    for text in (
        "not a qubo file\n",
        "p qubo 0 x 1 0\n0 0 -1\n",  # non-integer header field
        "p qubo 1 1 1 0\n0 0 -1\n",  # third header field not 0
        "p qubo 0 -1 0 0\n",  # negative count
        "p qubo 0 1 1 0\n0 -1\n",  # term line without 3 fields
    ):
        bad.write_text(text)
        assert main(["solve", str(bad), "-o", str(out)]) == EXIT_PARSE, text

    point = {"x": 1.0, "y": 2.0, "scale": 1.0, "orientation": 0.0}
    mixed = json.dumps({"points": [dict(point, descriptor=[1.0, 0.0]),
                                   dict(point, x=5.0, descriptor=[0.0, 1.0, 0.0])]})
    empty = json.dumps({"points": [dict(point, descriptor=[])]})
    badg = tmp_path / "bad.json"
    for doc in ("{broken", '{"points": null}', mixed, empty):
        badg.write_text(doc)
        assert main(["match", str(badg), str(badg), "-o", str(out)]) == EXIT_PARSE, doc
    badg.write_text('{"points": ' + "[" * 200000 + "]" * 200000 + "}")  # nested too deeply
    assert main(["match", str(badg), str(badg), "-o", str(out)]) == EXIT_PARSE

    # graph and QUBO files are read as UTF-8, and these bytes are not UTF-8
    badg.write_bytes(b'\xff\xfe{"points": []}')
    assert main(["match", str(badg), str(badg), "-o", str(out)]) == EXIT_PARSE
    bad.write_bytes(b"p qubo 0 1 1 0\n0 0 \xff\n")
    assert main(["solve", str(bad), "-o", str(out)]) == EXIT_PARSE

    # numerals that int() and float() read but the format does not
    for text in (
        "p qubo 0 1_0 1 0\n0 0 -1\n",  # header field with '_'
        "p qubo 0 1 1 0\n0 0 1_0\n",  # term value with '_'
        "p qubo 0 2 1 0\n\u0661 \u0661 -1\n",  # Arabic-Indic digits
    ):
        bad.write_bytes(text.encode())
        assert main(["solve", str(bad), "-o", str(out)]) == EXIT_PARSE, text

    # graph values that are not numbers, and an id that is not a string
    for doc in (
        dict(point, x="3.5", descriptor=[1.0, 0.0]),
        dict(point, x=" 7 ", descriptor=[1.0, 0.0]),
        dict(point, x=True, descriptor=[1.0, 0.0]),
        dict(point, descriptor=["1", "2"]),
        dict(point, descriptor=[True, False]),
    ):
        badg.write_text(json.dumps({"points": [doc]}))
        assert main(["match", str(badg), str(badg), "-o", str(out)]) == EXIT_PARSE, doc
    badg.write_text(json.dumps({"id": [1, 2], "points": [dict(point, descriptor=[1.0, 0.0])]}))
    assert main(["match", str(badg), str(badg), "-o", str(out)]) == EXIT_PARSE

    # every energy would be NaN, so the all-zero assignment would "win"
    inf = tmp_path / "inf.qubo"
    inf.write_text("p qubo 0 2 2 1\n0 0 -1\n1 1 -1\n0 1 inf\n")
    assert main(["solve", str(inf), "--solver", "exact", "-o", str(out)]) == EXIT_PARSE

    pgm = tmp_path / "bad.pgm"
    for text in (
        b"P2\n3 3\n",  # end of file inside the header
        b"P2\n3 x\n255\n",  # non-integer header field
        b"P2\n0 3\n255\n",  # zero width
        b"P2\n3 0\n255\n",  # zero height
        b"P2\n3 3\n255\n0 1 2 3 x 5 6 7 8\n",  # non-integer pixel
        b"P2\n3 3\n10\n0 1 2 3 11 5 6 7 8\n",  # pixel above maxval
        b"P2\n3 3\n2_55\n0 1 2 3 4 5 6 7 8\n",  # maxval with '_'
        b"P2\n3 3\n255\n0 1 2 3 1_0 5 6 7 8\n",  # pixel with '_'
        b"P2\n3 3\n255\n0 1 2 3 +5 5 6 7 8\n",  # signed pixel
    ):
        pgm.write_bytes(text)
        assert main(["detect", str(pgm), "-o", str(out)]) == EXIT_PARSE, text


def test_infeasible_exit_code(tmp_path, monkeypatch, capsys):
    prefix = str(tmp_path / "pair")
    main(["gen", "--inliers", "4", "--outliers", "1", "--seed", "3", "-o", prefix])
    # a solver that selects every candidate; with --tfeat -1 all pairs are
    # candidates, so some of them share a point and conflict
    monkeypatch.setattr(pipeline, "solve_mis_bnb", lambda gc: (set(range(gc.n)), True))
    out = tmp_path / "r.json"
    rc = main(["match", f"{prefix}_1.json", f"{prefix}_2.json", "--tfeat", "-1", "-o", str(out)])
    assert rc == EXIT_INFEASIBLE
    assert capsys.readouterr().err.startswith("infeasible solution:")
    assert not out.exists()


def test_detect_overflow_exit_code(tmp_path, capsys):
    pgm = tmp_path / "blobs.pgm"
    write_blob_pgm(pgm)
    out = tmp_path / "g.json"
    for flags in (["--sigma0", "inf"], ["--sigma0", "1e308"], ["--scale-step", "inf"], ["--scales", "3000"]):
        assert main(["detect", str(pgm), "-o", str(out), *flags]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error:")
    assert main(["detect", str(pgm), "-o", str(out), "--threshold", "nan"]) == EXIT_USAGE
    assert not out.exists()


def test_solve_memory_exit_code(tmp_path, capsys):
    huge = tmp_path / "huge.qubo"
    huge.write_text(f"p qubo 0 {2**62} 0 0\n")  # refused by the list size check
    out = tmp_path / "a.txt"
    assert main(["solve", str(huge), "--solver", "sa", "-o", str(out)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error:")


def test_non_finite_graph_exit_code(tmp_path):
    prefix = str(tmp_path / "pair")
    main(["gen", "--inliers", "4", "--outliers", "1", "--seed", "3", "-o", prefix])
    doc = json.loads(Path(f"{prefix}_1.json").read_text())
    doc["points"][0]["x"] = float("nan")
    nan = tmp_path / "nan.json"
    nan.write_text(json.dumps(doc))  # writes the bare token NaN
    out = tmp_path / "r.json"
    assert main(["match", str(nan), f"{prefix}_2.json", "-o", str(out)]) == EXIT_PARSE


def test_gen_non_finite_exit_code(tmp_path, capsys):
    prefix = str(tmp_path / "pair")
    for flag, value, field in (
        ("--position-noise", "nan", "position_noise"),
        ("--rotation", "inf", "rotation"),
        ("--tx", "nan", "translation"),
        # finite, but overflowing a generated inlier
        ("--position-noise", "1e308", "position_noise"),
        ("--scale", "1e308", "scale"),
        ("--descriptor-noise", "1e308", "descriptor_noise"),
    ):
        assert main(["gen", "-o", prefix, flag, value]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field} ") and err.count("\n") == 1, err
    assert not Path(f"{prefix}_1.json").exists()
    # finite noisy entries whose norm overflows load as their unit vector
    assert main(["gen", "-o", prefix, "--descriptor-noise", "1e154"]) == EXIT_OK
    for side in (1, 2):
        for rec in json.loads(Path(f"{prefix}_{side}.json").read_text())["points"]:
            assert math.hypot(*rec["descriptor"]) == pytest.approx(1.0, abs=1e-12)


def test_huge_integer_in_graph_exit_code(tmp_path, capsys):
    prefix = str(tmp_path / "pair")
    main(["gen", "--inliers", "4", "--outliers", "1", "--seed", "3", "-o", prefix])
    doc = Path(f"{prefix}_1.json").read_text()
    huge = tmp_path / "huge.json"
    out = tmp_path / "r.json"
    for field, value in (("x", 10**400), ("descriptor", [1, -(10**400)])):
        bad = json.loads(doc)
        bad["points"][2][field] = value  # a 400-digit integer, too large for a float
        huge.write_text(json.dumps(bad))
        assert main(["match", str(huge), f"{prefix}_2.json", "-o", str(out)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err == "parse error: bad point record #2: int too large to convert to float\n", err
    assert not out.exists()


class _Reached(Exception):
    """Raised in place of the library call a command makes, with its arguments."""


def _library_call(monkeypatch, tmp_path, argv):
    """The (args, kwargs) that `qimatch argv` passes to the library call that
    consumes its settings; the files the command reads are never opened."""

    def reach(*args, **kwargs):
        raise _Reached(args, kwargs)

    for name in ("detect", "generate_synthetic", "match_images", "conflict_graph", "solve_qubo"):
        monkeypatch.setattr(cli, name, reach)
    for name in ("read_pgm", "read_graph", "read_qubo"):
        monkeypatch.setattr(cli, name, lambda source, name=name: name)
    monkeypatch.chdir(tmp_path)
    Path("inst.qubo").write_text("")  # solve reads its text before read_qubo
    with pytest.raises(_Reached) as hit:
        main(argv)
    return hit.value.args


BARE = {
    "detect": ["detect", "img.pgm", "-o", "g.json"],
    "gen": ["gen", "-o", "pair"],
    "match": ["match", "a.json", "b.json", "-o", "out"],
    "export-qubo": ["export-qubo", "a.json", "b.json", "-o", "out"],
    "export-dot": ["export-dot", "a.json", "b.json", "-o", "out"],
    "solve": ["solve", "inst.qubo", "-o", "out"],
}

# every flag of each command, set away from its default
FLAGS = {
    "detect": ["--scales", "5", "--sigma0", "1.5", "--scale-step", "1.3",
               "--threshold", "0.05", "--max-points", "7", "--bins", "8"],
    "gen": ["--inliers", "5", "--outliers", "2", "--seed", "9", "--rotation", "0.3",
            "--scale", "1.1", "--tx", "2", "--ty", "-3", "--position-noise", "0.5",
            "--descriptor-noise", "0.1", "--dim", "8"],
    "match": ["--tfeat", "0.5", "--tgeom", "-0.25", "--limit", "40",
              "--solver", "sa", "--seed", "7"],
    "export-qubo": ["--tfeat", "0.5", "--tgeom", "-0.25", "--limit", "40"],
    "export-dot": ["--tfeat", "0.5", "--tgeom", "-0.25", "--limit", "40"],
    "solve": ["--solver", "sa", "--seed", "7"],
}

# the settings dataclasses whose fields each command's flags set
SETTINGS = {
    "detect": (DetectorParams,),
    "gen": (SyntheticSpec,),
    "match": (MatchParams, AnnealSchedule),
    "export-qubo": (MatchParams,),
    "export-dot": (MatchParams,),
    "solve": (AnnealSchedule,),
}


def test_parser_defaults_are_dataclass_defaults(monkeypatch, tmp_path):
    def call(command):
        return _library_call(monkeypatch, tmp_path, BARE[command])

    assert call("detect") == (("read_pgm", DetectorParams()), {})
    assert call("gen") == ((SyntheticSpec(),), {})
    assert call("match") == (
        ("read_graph", "read_graph", MatchParams()),
        {"solver": "bnb", "schedule": AnnealSchedule()},
    )
    assert call("export-qubo") == (("read_graph", "read_graph", MatchParams()), {})
    assert call("export-dot") == (("read_graph", "read_graph", MatchParams()), {})
    assert call("solve") == (("read_qubo", "exact", AnnealSchedule()), {})


def test_every_flag_reaches_its_field(monkeypatch, tmp_path):
    detector = DetectorParams(n_scales=5, sigma0=1.5, scale_step=1.3, response_threshold=0.05,
                              max_points=7, descriptor_bins=8)
    spec = SyntheticSpec(n_inliers=5, n_outliers_per_image=2, rotation=0.3, scale=1.1,
                         translation=(2.0, -3.0), position_noise=0.5, descriptor_noise=0.1,
                         descriptor_dim=8, seed=9)
    match = MatchParams(t_feat=0.5, t_geom=-0.25, limit_l=40)
    schedule = AnnealSchedule(seed=7)
    parse = build_parser().parse_args
    for command, bare in BARE.items():
        # every flag of the command is set away from its default
        full, base = vars(parse(bare + FLAGS[command])), vars(parse(bare))
        unset = {k for k, v in full.items() if v == base[k]}
        assert unset <= {"command", "func", "image", "graph1", "graph2", "qubo", "output"}

    def call(command):
        return _library_call(monkeypatch, tmp_path, BARE[command] + FLAGS[command])

    assert call("detect") == (("read_pgm", detector), {})
    assert call("gen") == ((spec,), {})
    assert call("match") == (
        ("read_graph", "read_graph", match), {"solver": "sa", "schedule": schedule}
    )
    assert call("export-qubo") == (("read_graph", "read_graph", match), {})
    assert call("export-dot") == (("read_graph", "read_graph", match), {})
    assert call("solve") == (("read_qubo", "sa", schedule), {})


def test_flags_parse_to_their_field_types(capsys):
    parse = build_parser().parse_args
    for command, bare in BARE.items():
        args = vars(parse(bare + FLAGS[command]))
        defaults = {f.name: f.default for cls in SETTINGS[command] for f in fields(cls)}
        types = {k: type(v) for k, v in args.items() if k in defaults}
        assert types and types == {k: type(defaults[k]) for k in types}, command
    # == alone would let 5.0 pass for 5
    n_scales = parse(BARE["detect"] + ["--scales", "5"]).n_scales
    assert type(n_scales) is int and n_scales == 5
    assert type(parse(BARE["detect"] + ["--sigma0", "2"]).sigma0) is float
    assert main(BARE["match"] + ["--limit", "3.5"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: argument --limit: invalid int value: '3.5'\n"


def test_pipeline_modules_do_not_load_scipy():
    # only the detector needs SciPy; the modules of the graph-to-QUBO chain do not
    code = (
        "import sys\n"
        "import qimatch.graph_model, qimatch.rng, qimatch.conflict\n"
        "import qimatch.qubo, qimatch.solvers, qimatch.pipeline\n"
        "print('scipy' in sys.modules)\n"
        "import qimatch.detector\n"
        "print('scipy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\nTrue\n"


def test_demo_script_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "demo_end_to_end.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "similarity (MIS size):" in proc.stdout
