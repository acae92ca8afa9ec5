"""JSON scene schema: forms, superconnections, cocycles, stabilizers, open sets
and relation chains.

Coefficient tables are stored either as base64 grid samples (default: compact
and lossless), as explicit re/im lists, or as finite Fourier mode lists that
are expanded onto the grid at load time.  All payloads carry ``schema: 1``.
Each scene type has one decoder; a malformed payload raises SceneError.
"""

from __future__ import annotations

import base64
import functools
import json

import numpy as np

from .errors import SceneError
from .forms import GradedMatrixForm, Grading, TorusChart
from .superconn import Superconnection

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "encode_array",
    "decode_array",
    "form_to_dict",
    "form_from_dict",
    "superconnection_to_dict",
    "superconnection_from_dict",
    "cocycle_to_dict",
    "cocycle_from_dict",
    "stabilizer_from_dict",
    "open_set_from_dict",
    "oracle_boxes_from_dict",
    "chain_from_dict",
    "save_scene",
    "load_scene",
]


def _decoder(fn):
    """Report the errors a malformed payload raises inside ``fn`` as SceneError."""

    @functools.wraps(fn)
    def decode(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
            detail = " ".join(str(exc).split())
            raise SceneError(
                f"malformed payload ({fn.__name__}): {type(exc).__name__}: {detail}"
            ) from exc

    return decode


def encode_array(arr: np.ndarray, encoding: str = "b64") -> dict:
    arr = np.ascontiguousarray(arr, dtype=np.complex128)
    if encoding == "b64":
        return {
            "enc": "b64",
            "dtype": "complex128",
            "shape": list(arr.shape),
            "data": base64.b64encode(arr.tobytes()).decode("ascii"),
        }
    if encoding == "lists":
        return {
            "enc": "lists",
            "shape": list(arr.shape),
            "re": arr.real.reshape(-1).tolist(),
            "im": arr.imag.reshape(-1).tolist(),
        }
    raise SceneError(f"unknown array encoding {encoding!r}")


@_decoder
def decode_array(payload: dict, chart: TorusChart | None = None) -> np.ndarray:
    enc = payload.get("enc")
    if enc == "b64":
        raw = base64.b64decode(payload["data"])
        return np.frombuffer(raw, dtype=np.complex128).reshape(payload["shape"]).copy()
    if enc == "lists":
        re = np.asarray(payload["re"], dtype=np.float64)
        im = np.asarray(payload["im"], dtype=np.float64)
        return (re + 1j * im).reshape(payload["shape"])
    if enc == "fourier":
        if chart is None:
            raise SceneError("fourier-encoded fields need the chart for expansion")
        trailing = tuple(payload["shape"])
        out = np.zeros(chart.shape + trailing, dtype=np.complex128)
        coords = [chart.coordinate(a) for a in range(chart.dim)]
        for mode in payload["modes"]:
            k = mode["k"]
            coeff = (
                np.asarray(mode["re"], dtype=np.float64)
                + 1j * np.asarray(mode["im"], dtype=np.float64)
            ).reshape(trailing)
            phase = np.zeros(chart.shape)
            for a, ka in enumerate(k):
                phase = phase + ka * coords[a]
            wave = np.exp(2j * np.pi * phase)
            out += wave[(...,) + (None,) * len(trailing)] * coeff
        return out
    raise SceneError(f"unknown array encoding {enc!r}")


def _chart_to_dict(chart: TorusChart) -> dict:
    return {"dim": chart.dim, "grid_size": chart.grid_size, "period": 1.0}


def _chart_from_dict(payload: dict) -> TorusChart:
    return TorusChart(int(payload["dim"]), int(payload.get("grid_size", 32)))


def form_to_dict(form: GradedMatrixForm, encoding: str = "b64") -> dict:
    comps = []
    for mask in range(form.chart.n_components):
        comp = form.data[mask]
        if not comp.any():
            continue
        axes = [a for a in range(form.chart.dim) if (mask >> a) & 1]
        comps.append({"axes": axes, "field": encode_array(comp, encoding)})
    return {
        "chart": _chart_to_dict(form.chart),
        "grading": form.grading.signature.tolist(),
        "components": comps,
    }


@_decoder
def form_from_dict(payload: dict) -> GradedMatrixForm:
    chart = _chart_from_dict(payload["chart"])
    grading = Grading(payload["grading"])
    out = GradedMatrixForm.zeros(chart, grading)
    for comp in payload.get("components", []):
        field = decode_array(comp["field"], chart)
        out.set_component(tuple(comp["axes"]), field)
    return out


def superconnection_to_dict(a: Superconnection, encoding: str = "b64") -> dict:
    chart = a.chart
    term0 = a.term0_field()
    conn1 = [a.coeff.component((axis,)) for axis in range(chart.dim)]
    higher = []
    for degree in range(2, chart.dim + 1):
        term = a.term(degree)
        if term.sup_norm() > 0:
            higher.append({"degree": degree, "form": form_to_dict(term, encoding)})
    payload = {
        "chart": _chart_to_dict(chart),
        "rank": a.rank,
        "grading": a.grading.signature.tolist(),
        "term0": encode_array(term0, encoding) if term0.any() else None,
        "conn1": [
            encode_array(w, encoding) if w.any() else None for w in conn1
        ],
        "higher": higher,
    }
    if a.affine:
        payload["affine"] = [
            {"axis": int(axis), "slope": encode_array(slope, encoding)}
            for axis, slope in sorted(a.affine.items())
        ]
    return payload


@_decoder
def superconnection_from_dict(payload: dict) -> Superconnection:
    chart = _chart_from_dict(payload["chart"])
    grading = Grading(payload["grading"])
    coeff = GradedMatrixForm.zeros(chart, grading)
    if payload.get("term0") is not None:
        coeff.set_component((), decode_array(payload["term0"], chart))
    for axis, enc in enumerate(payload.get("conn1") or []):
        if enc is not None:
            coeff.set_component((axis,), decode_array(enc, chart))
    for item in payload.get("higher", []):
        form = form_from_dict(item["form"])
        coeff = coeff + form
    affine = None
    if payload.get("affine"):
        affine = {
            int(item["axis"]): decode_array(item["slope"], chart)
            for item in payload["affine"]
        }
    return Superconnection(coeff, affine)


def cocycle_to_dict(c, encoding: str = "b64") -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "type": "cocycle",
        "flavor": c.flavor,
        "superconnection": superconnection_to_dict(c.A, encoding),
        "omega": form_to_dict(c.omega, encoding),
    }


@_decoder
def cocycle_from_dict(payload: dict):
    from .dk import DKCocycle
    from .oddk import OddCocycle

    if payload.get("type") != "cocycle":
        raise SceneError("payload is not a cocycle scene")
    a = superconnection_from_dict(payload["superconnection"])
    omega = form_from_dict(payload["omega"])
    flavor = payload.get("flavor", "even")
    if flavor == "even":
        return DKCocycle(a, omega)
    if flavor == "odd":
        return OddCocycle(a, omega)
    raise SceneError(f"unknown cocycle flavor {flavor!r}")


def save_scene(path, payload: dict):
    payload = dict(payload)
    payload.setdefault("schema", SCHEMA_VERSION)
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True)


def load_scene(path) -> dict:
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SceneError(f"cannot read scene {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise SceneError(f"scene {path} is not a JSON object")
    if payload.get("schema") not in (None, SCHEMA_VERSION):
        raise SceneError(f"unsupported schema {payload.get('schema')}")
    return payload


@_decoder
def open_set_from_dict(payload: dict, chart: TorusChart):
    from .relative import OpenSet

    kind = payload.get("kind", "whole")
    if kind == "whole":
        return OpenSet.whole(chart)
    if kind == "empty":
        return OpenSet.empty(chart)
    boxes = [(b["center"], b["core"], b["support"]) for b in payload["boxes"]]
    if kind == "box":
        b = boxes[0]
        return OpenSet.box(chart, *b)
    if kind == "complement":
        return OpenSet.complement_of_boxes(chart, boxes)
    raise SceneError(f"unknown open-set kind {kind!r}")


@_decoder
def oracle_boxes_from_dict(scene: dict) -> list:
    """(center, radius) of each of a scene's ``oracle_boxes``: a point of T^2
    and a radius in (0, 0.5], one for both axes or one per axis (0.5 already
    spans the torus; a larger one would only lengthen the winding loop)."""
    boxes = []
    for b in scene.get("oracle_boxes", []):
        center = np.asarray(b["center"], dtype=float).reshape(2)
        radius = np.broadcast_to(np.asarray(b["radius"], dtype=float), (2,))
        if not (np.isfinite(center).all() and ((radius > 0) & (radius <= 0.5)).all()):
            raise ValueError(f"oracle box {b!r} needs a finite center and a radius in (0, 0.5]")
        boxes.append((center.tolist(), radius))
    return boxes


@_decoder
def stabilizer_from_dict(payload: dict, chart: TorusChart):
    from .dk import Stabilizer

    s_field = decode_array(payload["s"], chart)
    conns = [decode_array(enc, chart) for enc in payload.get("conn", [])]
    return Stabilizer(int(payload["e_rank"]), s_field, conns)


def chain_from_dict(payload: dict) -> list:
    """The steps of a relation chain: objects with an ``op`` and numeric
    ``tol`` / ``rank_tol`` where given."""
    ops = payload.get("ops", [])
    if not isinstance(ops, list) or not all(isinstance(step, dict) for step in ops):
        raise SceneError("chain ops must be a list of objects")
    for i, step in enumerate(ops, 1):
        for key in ("tol", "rank_tol"):
            value = step.get(key, 0.0)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SceneError(f"chain step {i}: {key} must be a number, got {value!r}")
    return ops
