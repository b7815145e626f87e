import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from qimatch.cli import EXIT_OK, EXIT_PARSE, EXIT_USAGE, _match_params, build_parser, main
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


def test_usage_error_exit_code():
    assert main(["match", "only-one-arg"]) == EXIT_USAGE
    assert main(["--bogus"]) == EXIT_USAGE


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.qubo"
    bad.write_text("not a qubo file\n")
    out = tmp_path / "a.txt"
    assert main(["solve", str(bad), "-o", str(out)]) == EXIT_PARSE

    badg = tmp_path / "bad.json"
    for doc in ("{broken", '{"points": null}'):
        badg.write_text(doc)
        assert main(["match", str(badg), str(badg), "-o", str(out)]) == EXIT_PARSE

    # every energy would be NaN, so the all-zero assignment would "win"
    inf = tmp_path / "inf.qubo"
    inf.write_text("p qubo 0 2 2 1\n0 0 -1\n1 1 -1\n0 1 inf\n")
    assert main(["solve", str(inf), "--solver", "exact", "-o", str(out)]) == EXIT_PARSE


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


def test_parser_defaults_are_dataclass_defaults():
    parse = build_parser().parse_args
    d = DetectorParams()
    args = parse(["detect", "img.pgm", "-o", "g.json"])
    assert (args.scales, args.sigma0, args.scale_step, args.threshold, args.max_points,
            args.bins) == (d.n_scales, d.sigma0, d.scale_step, d.response_threshold,
                           d.max_points, d.descriptor_bins)
    s = SyntheticSpec()
    args = parse(["gen", "-o", "pair"])
    assert (args.inliers, args.outliers, args.seed, args.rotation, args.scale,
            (args.tx, args.ty), args.position_noise, args.descriptor_noise,
            args.dim) == (s.n_inliers, s.n_outliers_per_image, s.seed, s.rotation,
                          s.scale, s.translation, s.position_noise, s.descriptor_noise,
                          s.descriptor_dim)
    for command in ("match", "export-qubo", "export-dot"):
        args = parse([command, "a.json", "b.json", "-o", "out"])
        assert _match_params(args) == MatchParams()
    assert parse(["match", "a.json", "b.json", "-o", "out"]).seed == AnnealSchedule().seed
    assert parse(["solve", "inst.qubo", "-o", "out"]).seed == AnnealSchedule().seed


def test_demo_script_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "demo_end_to_end.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "similarity (MIS size):" in proc.stdout
