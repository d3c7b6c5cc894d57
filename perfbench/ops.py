"""Running the operations of a batch and checking what they returned.

`execute` runs one operation through the public entry points and returns
a record of its output; `verify` runs the oracles on a stored record
after the timed phase.  Package functions are looked up on their module
at call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import json
import os
import traceback

import numpy as np

import oracles

from evpos import cli, perturbation, positivity, presets, spectral, stepfun


def write_inputs(ops: list, workdir: str) -> None:
    """Matrix documents for the CLI operations, one file per matrix."""
    for i, op in enumerate(ops):
        if op.kind == "analyze":
            op.input_path = os.path.join(workdir, f"in_{i:03d}.json")
            with open(op.input_path, "w") as fh:
                json.dump({"matrix": op.matrix.tolist()}, fh)


def execute(op, out_path: str) -> dict:
    if op.kind == "analyze":
        code = cli.main(["analyze", "--matrix", op.input_path, "--report-out", out_path])
        return {"code": code, "out": out_path}
    if op.kind == "cli":
        code = cli.main([*op.argv, "--report-out", out_path])
        return {"code": code, "out": out_path}
    if op.kind == "certify":
        cert, verdict = positivity.certify_eventual_strong_positivity(op.matrix)
        proj = spectral.dominant_projection(op.matrix)
        return {
            "class": verdict.verdict.value,
            "certified": verdict.certified,
            "onset": verdict.onset_t0,
            "s": cert.spectral_bound,
            "projection": proj.projection,
        }
    if op.kind == "witness":
        p = op.params
        return {"witness": stepfun.irreducibility_witness_search(p["k"], p["j"], p["depth"])}
    if op.kind == "orbit":
        p = op.params
        system = presets.coupled_demo_system(L=p["L"], h=p["h"])
        provider = perturbation.CoupledProvider(system)
        seed = perturbation.ProductVector(np.array(p["z"]), system.provider2.zero_vector())
        fronts, finite = [], True
        for q in range(1, p["steps"] + 1):
            out = provider.apply(q * p["h"], seed)
            fronts.append((q * p["h"], int(out.second.support_lo)))
            finite &= bool(np.isfinite(out.first).all() and np.isfinite(out.second.samples).all())
        return {"fronts": fronts, "finite": finite, "tail": provider.series_report()["tail_bound"]}
    raise ValueError(f"unknown operation kind {op.kind!r}")


def run(op, out_path: str):
    """(record, error text); an operation that raises is a failed operation."""
    try:
        return execute(op, out_path), None
    except Exception:  # the batch goes on; the traceback is reported with the failure
        return None, traceback.format_exc(limit=-3)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def verify(op, record: dict) -> tuple:
    """(problems, verdicts, certified verdicts) for one stored record.

    Verdicts are the positivity and irreducibility answers an operation
    gives; a verdict counts as certified when the package marks it so
    (certified=True, evidence_mode="certified", an exact step-function
    witness, or a coupled orbit with a finite series tail bound).
    """
    if op.kind in ("analyze", "cli") and record["code"] != 0:
        return [f"exit code {record['code']}"], 0, 0
    if op.kind == "analyze":
        text = _read(record["out"])
        rep = json.loads(text)
        certified = int(rep["positivity"]["certified"]) + int(
            rep["irreducibility"]["evidence_mode"] == "certified"
        )
        return oracles.check_analyze_report(op.matrix, text), 2, certified
    if op.kind == "certify":
        problems = oracles.check_positivity(
            op.matrix, record["class"], record["certified"], record["onset"], record["s"]
        )
        problems += oracles.check_projection(record["projection"])
        return problems, 1, int(record["certified"])
    if op.kind == "witness":
        p = op.params
        problems = oracles.check_witness(p["k"], p["j"], p["depth"], record["witness"])
        return problems, 1, int(record["witness"] is not None)
    if op.kind == "orbit":
        p = op.params
        problems = oracles.check_support_floor(p["L"], p["h"], record["fronts"])
        if not record["finite"]:
            problems.append("orbit values are not finite")
        return problems, 1, int(np.isfinite(record["tail"]))
    text = _read(record["out"])
    if op.stratum == "series-pairing":
        return oracles.check_pairing_series(text), 0, 0
    if op.stratum == "series-support-front":
        return oracles.check_support_front_series(text), 0, 0
    problems = oracles.check_suite_report(text)
    if op.stratum == "suite-ex3_10":
        checks = {c["name"]: c for c in json.loads(text)["checks"]}
        mode = checks.get("classification", {}).get("details", {}).get("mode")
        return problems, 1, int(mode == "certified")
    return problems, 0, 0
