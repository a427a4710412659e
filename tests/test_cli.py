import json
import math

import numpy as np
import pytest

import valforge as vf
from valforge.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_spanning_check(tmp_path, capsys):
    code, out, _ = run(capsys, "spanning-check", "--n", "3", "--degree", "20", "--out", str(tmp_path))
    assert code == 0
    report = json.loads(out)
    assert report["N"] == 7
    assert report["t"] == 7.0
    assert report["c"] == pytest.approx(1 / 3)
    assert report["min_sigma"] > 0
    on_disk = json.loads((tmp_path / "spanning_check.json").read_text())
    assert on_disk == report


def test_spanning_check_n2(capsys, tmp_path):
    code, out, _ = run(capsys, "spanning-check", "--n", "2", "--degree", "10", "--out", str(tmp_path))
    assert code == 0
    report = json.loads(out)
    assert report["N"] == 4 and report["t"] == 5.0 and report["min_sigma"] > 0


def test_spanning_check_negative_control(capsys, tmp_path):
    code, _, _ = run(
        capsys, "spanning-check", "--n", "3", "--degree", "10", "--all-balls", "--out", str(tmp_path)
    )
    assert code == 1


def test_mixed_volume_command(tmp_path, capsys):
    config = {
        "n": 3,
        "degree": 20,
        "out": str(tmp_path),
        "bodies": {
            "B": {"kind": "ball", "radius": 1.0},
            "C": {
                "kind": "polytope",
                "vertices": [[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)],
            },
        },
        "volumes": [{"bodies": ["B", "B", "B"]}, {"bodies": ["C"]}],
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    code, _, _ = run(capsys, "mixed-volume", "--config", str(cfg))
    assert code == 0
    rows = (tmp_path / "mixed_volumes.csv").read_text().strip().splitlines()
    assert rows[0].startswith("bodies")
    ball_row = rows[1].split(",")
    assert float(ball_row[2]) == pytest.approx(4 * np.pi / 3, abs=1e-8)
    cube_row = rows[2].split(",")
    assert float(cube_row[3]) == pytest.approx(1.0, abs=1e-9)


def test_mixed_volume_steiner_table(tmp_path, capsys):
    config = {
        "n": 3,
        "degree": 20,
        "out": str(tmp_path),
        "bodies": {
            "B": {"kind": "ball", "radius": 1.0},
            "C": {
                "kind": "polytope",
                "vertices": [[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)],
            },
        },
        "steiner": ["C", "B"],
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    code, _, _ = run(capsys, "mixed-volume", "--config", str(cfg))
    assert code == 0
    rows = (tmp_path / "steiner.csv").read_text().strip().splitlines()
    assert rows[0] == "body-id,j,coefficient"
    table = {(r.split(",")[0], int(r.split(",")[1])): float(r.split(",")[2]) for r in rows[1:]}
    assert table[("C", 0)] == pytest.approx(1.0, abs=1e-9)
    assert table[("C", 2)] == pytest.approx(3 * np.pi, abs=1e-9)
    assert table[("B", 3)] == pytest.approx(4 * np.pi / 3, rel=1e-9)


def test_mixed_volume_euler_and_volume_evaluators(tmp_path, capsys):
    # degree-0 and degree-n valuations appear as direct evaluators: an empty
    # body list is the Euler characteristic, a single body its volume
    config = {
        "n": 3,
        "degree": 20,
        "out": str(tmp_path),
        "bodies": {"B": {"kind": "ball", "radius": 1.0}},
        "volumes": [{"bodies": []}, {"bodies": ["B"]}],
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    code, _, _ = run(capsys, "mixed-volume", "--config", str(cfg))
    assert code == 0
    rows = (tmp_path / "mixed_volumes.csv").read_text().strip().splitlines()
    assert rows[1].split(",")[0] == "euler"
    assert float(rows[2].split(",")[2]) == pytest.approx(4 * np.pi / 3, abs=1e-8)


def test_mixed_volume_rejects_bad_config(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"n": "three"}))
    code, _, err = run(capsys, "mixed-volume", "--config", str(cfg))
    assert code == 2
    assert "input error" in err
    cfg.write_text(json.dumps({"volumes": [{"bodies": ["missing"]}]}))
    code, _, err = run(capsys, "mixed-volume", "--config", str(cfg))
    assert code == 2


def synth_config(tmp_path, k=1, tol=1e-2):
    return {
        "n": 3,
        "k": k,
        "degree": 20,
        "seed": 11,
        "tol": tol,
        "out": str(tmp_path / "run"),
        "bodies": {
            "L1": {"kind": "perturbed_ball", "radius": 1.0, "coeffs": {"2,0": 0.05, "3,1": 0.02}},
            "L2": {"kind": "perturbed_ball", "radius": 1.0, "coeffs": {"1,0": 0.1, "4,3": 0.03}},
        },
        "kernel": {
            "type": "separable",
            "bodies": ["L1", "L2"][: 3 - k],
            "max_degree": 4,
        },
        "test_bodies": {"count": 3, "max_degree": 4, "amplitude": 0.05},
    }


def test_synthesize_and_verify(tmp_path, capsys):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(synth_config(tmp_path)))
    code, out, _ = run(capsys, "synthesize", "--config", str(cfg))
    assert code == 0
    assert "14 mixed volumes" in out
    artifact_path = tmp_path / "run" / "artifact.json"
    artifact = json.loads(artifact_path.read_text())
    assert artifact["mixed_volume_count"] <= 14
    assert all(set(term) == {"alpha", "l_plus", "l_minus"} for term in artifact["terms"])
    rows = (tmp_path / "run" / "verification.csv").read_text().strip().splitlines()
    assert len(rows) == 4  # header + 3 bodies
    worst = max(float(r.split(",")[-1]) for r in rows[1:])
    assert worst <= 1e-2

    bodies = tmp_path / "bodies.json"
    bodies.write_text(
        json.dumps(
            [
                {"id": "ball", "kind": "ball", "radius": 1.0},
                {"id": "pb", "kind": "perturbed_ball", "radius": 1.0, "coeffs": {"2,2": 0.04}},
            ]
        )
    )
    code, out, _ = run(
        capsys,
        "verify",
        "--artifact",
        str(artifact_path),
        "--bodies",
        str(bodies),
        "--out",
        str(tmp_path / "verify"),
    )
    assert code == 0
    assert (tmp_path / "verify" / "verification.csv").exists()

    # artifact JSON round-trips byte-identically through parse + re-dump
    text = artifact_path.read_text()
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text


def test_synthesize_harmonic_table_kernel(tmp_path, capsys):
    config = synth_config(tmp_path)
    config["kernel"] = {
        "type": "harmonic-table",
        "max_degree": 4,
        "terms": [
            {"coefficient": 1.0, "labels": ["0,0", "0,0"]},
            {"coefficient": 0.25, "labels": ["2,1", "1,0"]},
            {"coefficient": -0.1, "labels": ["3,2", "2,4"]},
            {"coefficient": 0.08, "labels": ["1,1", "4,0"]},
            {"coefficient": 0.05, "labels": ["4,5", "0,0"]},
        ],
    }
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(config))
    code, out, _ = run(capsys, "synthesize", "--config", str(cfg))
    assert code == 0
    assert "max relative error" in out


def test_synthesize_k2(tmp_path, capsys):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(synth_config(tmp_path, k=2)))
    code, out, _ = run(capsys, "synthesize", "--config", str(cfg))
    assert code == 0
    assert "2 mixed volumes" in out


def test_synthesize_unreachable_tolerance_fails(tmp_path, capsys):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(synth_config(tmp_path, tol=1e-13)))
    code, _, _ = run(capsys, "synthesize", "--config", str(cfg))
    assert code == 1


def test_counterexample_command(tmp_path, capsys):
    code, out, _ = run(
        capsys, "counterexample", "--n", "3", "--eps-sweep", "1e-2:1e-4:5", "--out", str(tmp_path)
    )
    assert code == 0
    rows = (tmp_path / "divergence.csv").read_text().strip().splitlines()
    assert len(rows) == 6
    first = rows[1].split(",")
    assert float(first[1]) >= float(first[2])
    plot = (tmp_path / "divergence_loglog.txt").read_text().strip().splitlines()
    assert len(plot) == 5
    x0, y0 = map(float, plot[0].split())
    assert x0 == pytest.approx(np.log(1e-2))


def test_counterexample_single_eps(tmp_path, capsys):
    code, _, _ = run(
        capsys, "counterexample", "--eps-sweep", "1e-3:1e-3:1", "--out", str(tmp_path)
    )
    # single point: slope fit degenerates but the bound must hold
    rows = (tmp_path / "divergence.csv").read_text().strip().splitlines()
    assert len(rows) == 2
    assert rows[1].endswith("pass")


def test_counterexample_bad_sweep(tmp_path, capsys):
    bad_inputs = (
        ("--eps-sweep", "nonsense"),
        ("--eps-sweep", "0.1:0.01:3"),  # eps >= 1/12: the plateau leaves [eps/2, 1/3]
        ("--eps-sweep", "1e-2:1e-5:0"),  # empty sweep
        ("--n", "2"),
    )
    for argv in bad_inputs:
        code, _, err = run(capsys, "counterexample", *argv, "--out", str(tmp_path))
        assert code == 2, argv
        assert "input error" in err, argv
    assert not (tmp_path / "divergence.csv").exists()


def test_commands_deterministic(tmp_path, capsys):
    outputs = []
    for run_dir in ("a", "b"):
        out = tmp_path / run_dir
        code, _, _ = run(capsys, "spanning-check", "--n", "3", "--degree", "12", "--out", str(out))
        assert code == 0
        code, _, _ = run(
            capsys, "counterexample", "--eps-sweep", "1e-2:1e-3:3", "--out", str(out)
        )
        assert code == 0
        cfg = tmp_path / f"synth-{run_dir}.json"
        cfg.write_text(json.dumps(synth_config(out, k=2)))
        code, _, _ = run(capsys, "synthesize", "--config", str(cfg))
        assert code == 0
        outputs.append(
            [
                (out / name).read_bytes()
                for name in ("spanning_check.json", "divergence.csv", "run/artifact.json", "run/verification.csv")
            ]
        )
    assert outputs[0] == outputs[1]


@pytest.fixture(scope="module")
def k2_artifact(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("k2")
    config = synth_config(tmp, k=2)
    config["test_bodies"]["count"] = 1
    cfg = tmp / "synth.json"
    cfg.write_text(json.dumps(config))
    assert main(["synthesize", "--config", str(cfg)]) == 0
    return tmp / "run" / "artifact.json"


@pytest.mark.parametrize(
    "body, code, message",
    [
        ({"kind": "cube"}, 2, "input error: body bad: unknown body kind 'cube'"),
        ({"kind": "ball", "radius": -1}, 2, "input error: body bad: ball radius must be positive"),
        (
            {"kind": "polytope", "vertices": [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]]},
            2,
            "input error: body bad: verify evaluates smooth bodies only, got a polytope",
        ),
        # a failed convexity certificate is a mathematical-check failure, not bad input
        ({"kind": "perturbed_ball", "radius": 1.0, "coeffs": {"2,0": 2.0}}, 1, "mathematical check failed"),
        (
            {"kind": "perturbed_ball", "radius": 1.0, "coeffs": {"2,9": 0.01}},
            2,
            "input error: body bad: harmonic label 2,9 is outside the n = 3 dictionary",
        ),
        # non-finite fields: a NaN eigenvalue would otherwise pass the certificate
        ({"kind": "ball", "radius": math.nan}, 2, "input error: body bad: ball radius must be positive and finite"),
        (
            {"kind": "perturbed_ball", "radius": 1.0, "coeffs": {"2,0": math.nan}},
            2,
            "input error: body bad: harmonic coefficients must be finite",
        ),
        (
            {"kind": "perturbed_ball", "radius": math.inf, "coeffs": {"2,0": 0.01}},
            2,
            "input error: body bad: perturbed ball radius must be positive and finite",
        ),
        (
            {"kind": "ball", "radius": 1.0, "center": [math.nan, 0.0, 0.0]},
            2,
            "input error: body bad: translation vector must be finite",
        ),
    ],
    ids=[
        "unknown-kind",
        "negative-radius",
        "polytope",
        "non-convex",
        "bad-label",
        "nan-radius",
        "nan-coefficient",
        "infinite-radius",
        "nan-center",
    ],
)
def test_verify_bad_body(tmp_path, capsys, k2_artifact, body, code, message):
    bodies = tmp_path / "bodies.json"
    bodies.write_text(json.dumps([{"id": "ball", "kind": "ball", "radius": 1.0}, dict(body, id="bad")]))
    out = tmp_path / "verify"
    got, _, err = run(capsys, "verify", "--artifact", str(k2_artifact), "--bodies", str(bodies), "--out", str(out))
    assert got == code
    assert message in err
    assert not (out / "verification.csv").exists()


def test_synthesize_twice_in_one_process_is_byte_identical(tmp_path, capsys):
    artifacts = []
    for run_dir in ("a", "b"):
        config = synth_config(tmp_path / run_dir)
        config["test_bodies"]["count"] = 1
        cfg = tmp_path / f"{run_dir}.json"
        cfg.write_text(json.dumps(config))
        code, _, _ = run(capsys, "synthesize", "--config", str(cfg))
        assert code == 0
        artifacts.append((tmp_path / run_dir / "run" / "artifact.json").read_bytes())
    assert artifacts[0] == artifacts[1]


def _table_kernel(labels):
    return {"type": "harmonic-table", "max_degree": 4, "terms": [{"coefficient": 1.0, "labels": labels}]}


@pytest.mark.parametrize(
    "change, message",
    [
        ({"bodies": {"L1": {"kind": "ball", "radius": -1.0}}}, "input error: body L1: ball radius must be positive"),
        (
            {"kernel": _table_kernel(["2,7", "0,0"])},
            "input error: kernel: harmonic label 2,7 is outside the n = 3 dictionary",
        ),
        ({"kernel": _table_kernel(["2", "0,0"])}, "input error: kernel: "),
        ({"kernel": _table_kernel(["0,0"])}, "input error: harmonic-table entries need 2 labels"),
        (
            {"kernel": {"type": "harmonic-table", "terms": [{"labels": ["0,0", "0,0"]}]}},
            "input error: kernel: missing field 'coefficient'",
        ),
    ],
    ids=["negative-radius", "label-outside-dictionary", "malformed-label", "label-count", "no-coefficient"],
)
def test_synthesize_bad_config(tmp_path, capsys, change, message):
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(dict(synth_config(tmp_path), **change)))
    code, _, err = run(capsys, "synthesize", "--config", str(cfg))
    assert code == 2
    assert message in err
    assert not (tmp_path / "run" / "artifact.json").exists()


def _without(data, *path):
    data = json.loads(json.dumps(data))
    inner = data
    for key in path[:-1]:
        inner = inner[key]
    del inner[path[-1]]
    return data


def _with(data, *path, value):
    data = json.loads(json.dumps(data))
    inner = data
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    return data


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda a: {"n": 3, "k": 1, "terms": []}, "input error: artifact: missing field 'family'"),
        (lambda a: _without(a, "terms"), "input error: artifact: missing field 'terms'"),
        (lambda a: _without(a, "kernel", "terms", 0, "labels"), "input error: artifact: missing field 'labels'"),
        # the kernel block before it became a label table: one coefficient dict per factor
        (
            lambda a: dict(a, kernel=dict(a["kernel"], terms=[[{"0,0": 1.0}]])),
            "input error: artifact: ",
        ),
        (
            lambda a: dict(a, kernel=dict(a["kernel"], terms=[{"coefficient": 1.0, "labels": ["5,0"]}])),
            "input error: artifact: harmonic label 5,0 is outside the n = 3 dictionary of degree <= 4",
        ),
        (
            lambda a: _with(a, "terms", 0, "l_plus", "coeffs", "3,7", value=0.01),
            "input error: artifact: harmonic label 3,7 is outside",
        ),
    ],
    ids=["no-family", "no-terms", "no-labels", "old-kernel-block", "label-above-degree", "l-plus-label"],
)
def test_verify_bad_artifact(tmp_path, capsys, k2_artifact, edit, message):
    artifact = tmp_path / "artifact.json"
    artifact.write_text(json.dumps(edit(json.loads(k2_artifact.read_text()))))
    bodies = tmp_path / "bodies.json"
    bodies.write_text(json.dumps([{"kind": "ball", "radius": 1.0}]))
    out = tmp_path / "verify"
    code, _, err = run(capsys, "verify", "--artifact", str(artifact), "--bodies", str(bodies), "--out", str(out))
    assert code == 2
    assert message in err
    assert not (out / "verification.csv").exists()


def test_synthesize_n2(tmp_path, capsys):
    config = synth_config(tmp_path)
    config.update(n=2, bodies={"L1": {"kind": "perturbed_ball", "radius": 1.0, "coeffs": {"2,0": 0.05, "3,1": 0.02}}})
    config["kernel"]["bodies"] = ["L1"]
    cfg = tmp_path / "synth.json"
    cfg.write_text(json.dumps(config))
    code, out, _ = run(capsys, "synthesize", "--config", str(cfg))
    assert code == 0
    assert "for n=2, k=1" in out
    rows = (tmp_path / "run" / "verification.csv").read_text().strip().splitlines()
    assert len(rows) == 4
    assert max(float(r.split(",")[-1]) for r in rows[1:]) <= 1e-10
