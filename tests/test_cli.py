"""Scene serialization round trips and the command-line entry points."""

import json
import subprocess
import sys

import numpy as np
import pytest

from superchern.dk import DKCocycle, curvature_class
from superchern.forms import Grading, TorusChart, sup_norm
from superchern.scenes import random_omega, random_superconnection, winding_testbed
from superchern.serialize import (
    cocycle_from_dict,
    cocycle_to_dict,
    decode_array,
    encode_array,
    form_from_dict,
    form_to_dict,
    load_scene,
    save_scene,
    superconnection_from_dict,
    superconnection_to_dict,
)

CH1 = TorusChart(1, 16)
CH2 = TorusChart(2, 16)
G11 = Grading.balanced(1, 1)
BAD_TERM0 = {"enc": "lists", "shape": [3], "re": [1], "im": [0]}
BAD_S = {"enc": "b64", "shape": [2], "data": "AAAA"}


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "superchern.cli", *args],
        capture_output=True,
        text=True,
        timeout=600,
    )


class TestSerialization:
    def test_array_roundtrip(self, rng):
        arr = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
        for enc in ("b64", "lists"):
            back = decode_array(encode_array(arr, enc))
            assert np.allclose(back, arr)

    def test_fourier_expansion(self):
        chart = TorusChart(1, 16)
        payload = {
            "enc": "fourier",
            "shape": [1, 1],
            "modes": [
                {"k": [1], "re": [[0.0]], "im": [[-0.5]]},
                {"k": [-1], "re": [[0.0]], "im": [[0.5]]},
            ],
        }
        field = decode_array(payload, chart)
        x = chart.coordinate(0)
        assert np.allclose(field[..., 0, 0], np.sin(2 * np.pi * x))

    def test_form_roundtrip(self, rng):
        from superchern.scenes import random_scalar_form

        form = random_scalar_form(rng, CH2, {0, 1, 2}, 1.0)
        back = form_from_dict(form_to_dict(form))
        assert sup_norm(back - form) < 1e-14

    def test_superconnection_roundtrip(self, rng):
        a = random_superconnection(rng, CH2, G11)
        back = superconnection_from_dict(superconnection_to_dict(a))
        assert sup_norm(back.coeff - a.coeff) < 1e-14
        assert back.grading == a.grading

    def test_affine_roundtrip(self):
        from superchern.scenes import dirac_twist_superconnection

        a = dirac_twist_superconnection(CH1, 2, modes=2)
        back = superconnection_from_dict(superconnection_to_dict(a))
        assert sup_norm(back.coeff - a.coeff) < 1e-14
        assert set(back.affine) == {0}
        assert np.allclose(back.affine[0], a.affine[0])

    def test_cocycle_roundtrip(self, rng, tmp_path):
        c = DKCocycle(
            random_superconnection(rng, CH1, G11), random_omega(rng, CH1)
        )
        path = tmp_path / "cocycle.json"
        save_scene(path, cocycle_to_dict(c))
        back = cocycle_from_dict(load_scene(path))
        assert sup_norm(back.A.coeff - c.A.coeff) < 1e-14
        assert sup_norm(back.omega - c.omega) < 1e-14


class TestCLI:
    def test_verify_pass_and_determinism(self, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        r1 = run_cli("verify", "spectral-lemmas", "--out", str(out1))
        r2 = run_cli("verify", "spectral-lemmas", "--out", str(out2))
        assert r1.returncode == 0 and r2.returncode == 0
        d1 = json.loads(out1.read_text())
        d2 = json.loads(out2.read_text())
        assert d1["schema"] == 1
        assert d1["content_hash"] == d2["content_hash"]
        assert d1["passed"]
        assert all("anchor" in rec for rec in d1["records"])

    def test_verify_zero_tolerance_fails(self):
        res = run_cli("verify", "spectral-lemmas", "--tol", "0")
        assert res.returncode == 1

    def test_unknown_suite_is_input_error(self):
        res = run_cli("verify", "no-such-suite")
        assert res.returncode == 2

    @pytest.mark.parametrize("command", [("verify", "chern-identities"), ("twisted", "verify")])
    @pytest.mark.parametrize(
        "flag, value",
        [("--grid", "3"), ("--grid", "12"), ("--tol", "-1"), ("--seed", "-5")],
    )
    def test_bad_flag_is_input_error(self, command, flag, value):
        res = run_cli(*command, flag, value)
        assert res.returncode == 2
        assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1

    def test_bad_flag_for_all_suites_is_input_error(self):
        res = run_cli("verify", "all", "--grid", "12")
        assert res.returncode == 2
        assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1

    @pytest.mark.parametrize(
        "override",
        [{"grid": 3}, {"grid": 12}, {"grid": "x"}, {"grid": 8.5}, {"tol_scale": -1},
         {"tol_scale": "x"}, {"seed": -5}, {"seed": 1.5}, [1, 2]],
    )
    def test_bad_config_is_input_error(self, tmp_path, override):
        config = tmp_path / "config.json"
        if isinstance(override, dict):
            save_scene(config, override)
        else:
            config.write_text(json.dumps(override))
        res = run_cli("verify", "chern-identities", "--config", str(config))
        assert res.returncode == 2
        assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1

    def test_verify_all_reads_config(self, tmp_path):
        config = tmp_path / "config.json"
        save_scene(config, {"seed": 7})
        out = tmp_path / "r.json"
        res = run_cli("verify", "all", "--grid", "8", "--config", str(config), "--out", str(out))
        assert res.returncode in (0, 1), res.stderr
        reports = sorted(tmp_path.glob("r-*.json"))
        assert len(reports) == 7
        configs = [json.loads(p.read_text())["config"] for p in reports]
        assert all(c["seed"] == 7 and c["grid"] == 8 for c in configs)

    def test_verify_all_config_naming_a_suite_is_input_error(self, tmp_path):
        config = tmp_path / "config.json"
        save_scene(config, {"suite": "odd"})
        res = run_cli("verify", "all", "--config", str(config))
        assert res.returncode == 2
        assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1

    def test_csv_output(self, tmp_path):
        out = tmp_path / "r.csv"
        res = run_cli("verify", "spectral-lemmas", "--format", "csv", "--out", str(out))
        assert res.returncode == 0
        header = out.read_text().splitlines()[0]
        assert header.startswith("name,anchor,residual")

    def test_spectral_table(self, tmp_path):
        out = tmp_path / "table.csv"
        res = run_cli("spectral", "table", "--cutoffs", "8,16", "--out", str(out))
        assert res.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0].split(",")[:2] == ["table", "N"]
        assert len(lines) > 10

    @pytest.mark.parametrize(
        "flag, value",
        [("--cutoffs", "8,abc"), ("--cutoffs", "0"), ("--cutoffs", "8,-4"), ("--twist", "nan")],
    )
    def test_bad_spectral_flag_is_input_error(self, flag, value):
        res = run_cli("spectral", "table", flag, value)
        assert res.returncode == 2
        assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1

    def test_dk_apply_chain(self, tmp_path, rng):
        from superchern.scenes import gapped_superconnection
        from superchern.serialize import encode_array

        c = DKCocycle(
            gapped_superconnection(rng, CH1, gap=1.0, wiggle=0.1, phase_amp=0.3, amp1=0.3),
            random_omega(rng, CH1, 0.4, 1),
        )
        scene = tmp_path / "c.json"
        save_scene(scene, cocycle_to_dict(c))
        chain = tmp_path / "chain.json"
        save_scene(
            chain,
            {
                "type": "relation_chain",
                "ops": [{"op": "collapse", "tol": 1e-10}],
            },
        )
        out = tmp_path / "out.json"
        res = run_cli(
            "dk",
            "apply-chain",
            "--cocycle",
            str(scene),
            "--chain",
            str(chain),
            "--out",
            str(out),
        )
        assert res.returncode == 0, res.stderr
        result = cocycle_from_dict(load_scene(out))
        assert result.rank == 0
        assert (
            sup_norm(curvature_class(result) - curvature_class(c)) < 1e-8
        )

    def _chain_cli(self, tmp_path, rng, steps, patch=None):
        c = DKCocycle(
            random_superconnection(rng, CH1, G11, amp0=0.3, amp1=0.2, max_mode=1),
            random_omega(rng, CH1, 0.4, 1),
        )
        payload = cocycle_to_dict(c)
        scene = tmp_path / "c.json"
        save_scene(scene, patch(payload) if patch else payload)
        chain = tmp_path / "chain.json"
        save_scene(chain, {"type": "relation_chain", "ops": steps})
        return run_cli("dk", "apply-chain", "--cocycle", str(scene), "--chain", str(chain))

    @pytest.mark.parametrize(
        "step", [{"op": "stabilize", "stabilizer": {"e_rank": 1}}, {"op": "add"}]
    )
    def test_chain_step_missing_key_is_input_error(self, tmp_path, rng, step):
        res = self._chain_cli(tmp_path, rng, [step])
        assert res.returncode == 2
        assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1

    def test_chain_step_unreadable_scene_is_input_error(self, tmp_path, rng):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        res = self._chain_cli(tmp_path, rng, [{"op": "add", "with": str(bad)}])
        assert res.returncode == 2
        assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1

    def test_relative_index_cli(self, tmp_path):
        a, _, _, zeros = winding_testbed(128)
        scene = tmp_path / "scene.json"
        save_scene(
            scene,
            {
                "type": "superconnection_scene",
                "superconnection": superconnection_to_dict(a),
                "oracle_boxes": [{"center": list(z), "radius": 0.23} for z in zeros],
            },
        )
        sets = tmp_path / "sets.json"
        save_scene(
            sets,
            {
                "type": "open_set",
                "kind": "complement",
                "boxes": [{"center": list(z), "core": 0.10, "support": 0.26} for z in zeros],
            },
        )
        out = tmp_path / "chi.json"
        res = run_cli(
            "relative",
            "index",
            "--scene",
            str(scene),
            "--open-set",
            str(sets),
            "--c-frac",
            "0.75",
            "--alpha",
            "6.0",
            "--out",
            str(out),
        )
        assert res.returncode == 0, res.stderr
        rep = load_scene(out)
        assert rep["core_sup"] < 1e-3  # coarse grid for CLI speed
        assert len(rep["oracle_boxes"]) == 2
        windings = [b["winding"] for b in rep["oracle_boxes"]]
        assert sorted(windings) == [-1, 1]

    @pytest.mark.parametrize(
        "patch, steps",
        [
            (lambda c: {"type": "cocycle"}, []),
            (lambda c: {**c, "superconnection": {**c["superconnection"], "term0": BAD_TERM0}}, []),
            (None, "x"),
            (None, [1]),
            (None, [{"op": "collapse", "tol": "abc"}]),
            (None, [{"op": "stabilize", "stabilizer": {"e_rank": 1, "s": BAD_S}}]),
        ],
        ids=["no-superconnection", "term0-shape", "ops-text", "ops-number", "tol-text", "s-buffer"],
    )
    def test_malformed_chain_input_is_input_error(self, tmp_path, rng, patch, steps):
        res = self._chain_cli(tmp_path, rng, steps, patch)
        assert res.returncode == 2, res.stderr
        assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1

    def test_relative_index_without_gap_fails(self, tmp_path):
        scene = tmp_path / "scene.json"
        save_scene(
            scene,
            {"superconnection": {"chart": {"dim": 2, "grid_size": 8}, "grading": [1, -1]}},
        )
        sets = tmp_path / "sets.json"
        save_scene(sets, {})
        res = run_cli("relative", "index", "--scene", str(scene), "--open-set", str(sets))
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1

    def _winding_index_cli(self, tmp_path, scene_extra, *flags):
        """relative index on the N32 winding testbed, its zeros cut out."""
        a, _, _, zeros = winding_testbed(32)
        scene = tmp_path / "scene.json"
        save_scene(scene, {"superconnection": superconnection_to_dict(a), **scene_extra})
        sets = tmp_path / "sets.json"
        save_scene(
            sets,
            {
                "type": "open_set",
                "kind": "complement",
                "boxes": [{"center": list(z), "core": 0.10, "support": 0.26} for z in zeros],
            },
        )
        return run_cli("relative", "index", "--scene", str(scene), "--open-set", str(sets), *flags)

    @pytest.mark.parametrize(
        "flag, value",
        [("--alpha", "nan"), ("--alpha", "-3"), ("--alpha", "0"), ("--alpha", "inf"),
         ("--c-frac", "0"), ("--c-frac", "-0.5"), ("--c-frac", "nan"), ("--c-frac", "inf")],
    )
    def test_bad_relative_flag_is_input_error(self, tmp_path, flag, value):
        res = self._winding_index_cli(tmp_path, {}, flag, value)
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1

    @pytest.mark.parametrize(
        "boxes",
        [
            [{"center": [0.5, 0.5]}],
            [{"center": [0.5, 0.5], "radius": "x"}],
            5,
            [{"center": [0.5, 0.5], "radius": float("nan")}],
            [{"center": [0.5, 0.5], "radius": 0.0}],
            [{"center": [0.5, 0.5], "radius": -0.2}],
            [{"center": [0.5, 0.5], "radius": 1e8}],
            [{"center": [0.5], "radius": 0.2}],
            [{"center": [0.5, float("inf")], "radius": 0.2}],
        ],
    )
    def test_bad_oracle_boxes_is_input_error(self, tmp_path, boxes):
        res = self._winding_index_cli(tmp_path, {"oracle_boxes": boxes})
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1

    def test_relative_index_empty_core_is_input_error(self, tmp_path):
        a, _, _, _ = winding_testbed(32)
        scene = tmp_path / "scene.json"
        save_scene(scene, {"superconnection": superconnection_to_dict(a)})
        sets = tmp_path / "sets.json"
        save_scene(sets, {"type": "open_set", "kind": "empty"})
        res = run_cli("relative", "index", "--scene", str(scene), "--open-set", str(sets))
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error:") and len(res.stderr.splitlines()) == 1
        assert "core is empty" in res.stderr

    def test_scene_parse_failure(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        res = run_cli("dk", "apply-chain", "--cocycle", str(bad), "--chain", str(bad))
        assert res.returncode == 2
