"""Command-line pipeline: group -> KL basis -> cells -> cell maps -> cactus.

Artifacts are byte-deterministic: JSON is emitted with sorted keys, lists in
canonical (ShortLex) order, DOT and CSV rows in canonical order.  Exit codes:
0 all requested checks pass, 1 usage or configuration error, 2 a structural
check or guaranteed congruence failed (a diagnostic report is emitted).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .cactus import CactusAction, parse_word, render_word
from .cells import build_a_table, compute_cells, verify_conjectures
from .cellmaps import (
    TheoremViolationError,
    parabolic_involutions,
    verify_cellular_pair,
    verify_descent_invariance,
)
from .coxeter import system_from_config, weights_from_config
from .hecke import ConsistencyError, algebra_for
from . import laurent

LARGE_GROUP_THRESHOLD = 400  # above |B4| = 384; bigger groups need an explicit opt-in


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _json_text(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _emit(out: Path | None, name: str, text: str, primary: bool = False) -> None:
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
        (out / name).write_text(text, encoding="utf-8")
    elif primary:
        sys.stdout.write(text)


def _parse_weights_flag(text: str) -> dict:
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        label, _, value = part.partition("=")
        if not value:
            raise UsageError("weight entry %r is not of the form gen=value" % part)
        comps = value.split(":")
        out[label.strip()] = (
            int(comps[0]) if len(comps) == 1 else tuple(int(c) for c in comps)
        )
    return out


def _load_context(args):
    cfg = {}
    if getattr(args, "config", None):
        cfg = json.loads(Path(args.config).read_text(encoding="utf-8"))
    merged = dict(cfg)
    if getattr(args, "type", None):
        merged["type"] = args.type
        merged.pop("matrix", None)
    if getattr(args, "matrix", None):
        merged["matrix"] = json.loads(args.matrix)
        merged.pop("type", None)
    if getattr(args, "labels", None):
        merged["labels"] = [x.strip() for x in args.labels.split(",")]
    if getattr(args, "weights", None):
        merged["weights"] = _parse_weights_flag(args.weights)
    for key in ("parabolic", "side", "out", "jobs", "max_length", "check", "word", "element"):
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    if getattr(args, "allow_large", False):
        merged["allow_large"] = True
    try:
        system = system_from_config(merged)
        weights = weights_from_config(system, merged.get("weights"))
    except ValueError as exc:
        raise UsageError(str(exc))
    jobs = merged.get("jobs")
    if jobs is not None and int(jobs) < 1:  # validated, though it has no effect
        raise UsageError("--jobs must be >= 1")
    max_length = merged.get("max_length")
    if max_length is not None and (type(max_length) is not int or max_length < 0):
        raise UsageError("--max-length must be an integer >= 0")
    out = merged.get("out")
    merged["out"] = Path(out) if out else None
    return system, weights, merged


def _require_desk_scale(system, merged) -> None:
    if not system.is_finite:
        raise UsageError("this command needs a finite group (see `group --max-length`)")
    if system.order > LARGE_GROUP_THRESHOLD and not merged.get("allow_large"):
        raise UsageError(
            "|W| = %d exceeds the desk-scale ceiling (%d); pass --allow-large "
            "to acknowledge the runtime" % (system.order, LARGE_GROUP_THRESHOLD)
        )


def _render(system, w: int) -> str:
    return system.element(w).render()


def _parabolic_labels(system, merged):
    spec = merged.get("parabolic")
    if spec is None:
        return tuple(system.labels)
    if isinstance(spec, str):
        spec = [x.strip() for x in spec.split(",") if x.strip()]
    for lab in spec:
        if lab not in system.index_of:
            raise UsageError("unknown generator %r in --parabolic" % lab)
    return tuple(spec)


# -- subcommands --------------------------------------------------------------------


def _cmd_group(args) -> int:
    system, weights, merged = _load_context(args)
    max_length = merged.get("max_length")
    if not system.is_finite and max_length is None:
        raise UsageError("infinite group: pass --max-length")
    elements = system.enumerate(max_length)
    doc = {
        "finite": system.is_finite,
        "order": system.order,
        "generators": list(system.labels),
        "weights": {k: list(v) for k, v in weights.mapping().items()},
        "elements": [
            {
                "word": e.render(),
                "length": e.length,
                "left_descents": sorted(e.descents("left")),
                "right_descents": sorted(e.descents("right")),
            }
            for e in elements
        ],
    }
    if system.is_finite:
        doc["longest"] = system.longest_element().render()
    _emit(merged["out"], "group.json", _json_text(doc), primary=True)
    return 0


def _cmd_klbasis(args) -> int:
    system, weights, merged = _load_context(args)
    _require_desk_scale(system, merged)
    algebra = algebra_for(system, weights)
    pstar = []
    for y in system.all_ids():
        for x in sorted(algebra.kl_vec(y)):
            pstar.append(
                {
                    "x": _render(system, x),
                    "y": _render(system, y),
                    "coeff": laurent.render(algebra.kl_vec(y)[x]),
                }
            )
    doc = {"pstar": pstar}
    if getattr(args, "with_h", False):
        table = algebra.full_h_table()
        hrecs = []
        for x in system.all_ids():
            for y in system.all_ids():
                for z in sorted(table[(x, y)]):
                    hrecs.append(
                        {
                            "x": _render(system, x),
                            "y": _render(system, y),
                            "z": _render(system, z),
                            "coeff": laurent.render(table[(x, y)][z]),
                        }
                    )
        doc["h"] = hrecs
    _emit(merged["out"], "klbasis.json", _json_text(doc), primary=True)
    return 0


def _dot_text(system, part, name: str) -> str:
    lines = ["digraph %s {" % json.dumps(name)]
    for i, cell in enumerate(part.cells):
        members = sorted(cell)
        if len(members) <= 8:
            label = "{%s}" % ", ".join(_render(system, w) or "1" for w in members)
        else:
            label = "cell %d (%d elements)" % (i, len(members))
        lines.append('  n%d [label="%s"];' % (i, label))
    for a, b in part.cover_edges():
        lines.append("  n%d -> n%d;" % (a, b))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_cells(args) -> int:
    system, weights, merged = _load_context(args)
    _require_desk_scale(system, merged)
    algebra = algebra_for(system, weights)
    dec = compute_cells(algebra)
    cells_doc = []
    order_doc = []
    offset = 0
    for side in ("left", "right", "two_sided"):
        part = dec.partition(side)
        for i, cell in enumerate(part.cells):
            cells_doc.append(
                {
                    "id": offset + i,
                    "side": side,
                    "members": [_render(system, w) for w in sorted(cell)],
                }
            )
        k = len(part.cells)
        for b in range(k):
            for a in sorted(part.below[b]):
                if a != b:
                    order_doc.append([offset + a, offset + b])
        offset += k
    doc = {"cells": cells_doc, "order": sorted(order_doc)}
    _emit(merged["out"], "cells.json", _json_text(doc), primary=True)
    for side in ("left", "right", "two_sided"):
        _emit(merged["out"], "cells_%s.dot" % side, _dot_text(system, dec.partition(side), side))
    return 0


def _cmd_afunction(args) -> int:
    system, weights, merged = _load_context(args)
    _require_desk_scale(system, merged)
    algebra = algebra_for(system, weights)
    table = build_a_table(algebra)
    rows = []
    for w in system.all_ids():
        rows.append(
            {
                "w": _render(system, w),
                "a": list(table.a[w]),
                "alpha": list(table.alpha[w]),
                "delta": list(table.delta[w]) if table.delta[w] is not None else None,
                "duflo": w in table.duflo,
                "d": _render(system, table.dmap[w]) if table.dmap else None,
            }
        )
    doc = {
        "dmap_available": table.dmap is not None,
        "values": rows,
    }
    _emit(merged["out"], "afunction.json", _json_text(doc), primary=True)
    return 0


def _report_doc(report) -> dict:
    return {"holds": report.holds, "witnesses": list(report.witnesses)}


def _cmd_cellmaps(args) -> int:
    system, weights, merged = _load_context(args)
    _require_desk_scale(system, merged)
    algebra = algebra_for(system, weights)
    labels = _parabolic_labels(system, merged)
    side = merged.get("side") or "left"
    if side not in ("left", "right"):
        raise UsageError("--side must be left or right")
    pinv = parabolic_involutions(algebra, labels)
    pair = pinv.extended(side)
    dec = compute_cells(algebra)
    reports = verify_cellular_pair(algebra, dec, pair)
    reports["descent-invariance"] = verify_descent_invariance(algebra, pair)
    doc = {
        "parabolic": list(labels),
        "side": side,
        "hypotheses": {k: _report_doc(r) for k, r in pinv.hypotheses.items()},
        "hypotheses_hold": pinv.hypotheses_hold,
        "maps": [
            {
                "w": _render(system, w),
                "image": _render(system, pair.delta[w]),
                "sign": pair.mu[w],
            }
            for w in system.all_ids()
        ],
        "verification": {k: _report_doc(r) for k, r in reports.items()},
    }
    _emit(merged["out"], "cellmaps.json", _json_text(doc), primary=True)
    csv_lines = ["w,two_sided_cell_id,eta"]
    for w in system.all_ids():
        csv_lines.append(
            "%s,%d,%d" % (_render(system, w), dec.two_sided.cell_of[w], pair.mu[w])
        )
    _emit(merged["out"], "eta.csv", "\n".join(csv_lines) + "\n")
    ok = pinv.hypotheses_hold and all(r.holds for r in reports.values())
    return 0 if ok else 2


def _cmd_conjectures(args) -> int:
    system, weights, merged = _load_context(args)
    _require_desk_scale(system, merged)
    which = merged.get("check") or "P1,P4,P8,P9"
    if isinstance(which, str):
        which = tuple(x.strip() for x in which.split(",") if x.strip())
    bad = [c for c in which if c not in ("P1", "P4", "P8", "P9")]
    if bad:
        raise UsageError("unsupported conjecture names: %s" % ", ".join(bad))
    algebra = algebra_for(system, weights)
    table = build_a_table(algebra)
    reports = verify_conjectures(table, which)
    doc = {
        "checks": {k: _report_doc(r) for k, r in reports.items()},
        "all_hold": all(r.holds for r in reports.values()),
    }
    _emit(merged["out"], "conjectures.json", _json_text(doc), primary=True)
    return 0 if doc["all_hold"] else 2


def _cmd_cactus_verify(args) -> int:
    system, weights, merged = _load_context(args)
    _require_desk_scale(system, merged)
    algebra = algebra_for(system, weights)
    action = CactusAction(algebra)
    checks = action.verify_relations()
    doc = {
        "generators": [list(g) for g in action.presentation.generators],
        "relations": [
            {
                "kind": c.kind,
                "family": c.family,
                "subsets": [list(g) for g in c.subsets],
                "holds": c.holds,
                "witnesses": list(c.report.witnesses),
            }
            for c in checks
        ],
        "all_hold": all(c.holds for c in checks),
    }
    _emit(merged["out"], "cactus_verify.json", _json_text(doc), primary=True)
    return 0 if doc["all_hold"] else 2


def _cmd_cactus_act(args) -> int:
    system, weights, merged = _load_context(args)
    _require_desk_scale(system, merged)
    if merged.get("word") is None:
        raise UsageError("cactus act needs --word")
    word = parse_word(merged["word"]) if isinstance(merged["word"], str) else tuple(
        tuple(letter) for letter in merged["word"]
    )
    side = merged.get("side") or "left"
    if side not in ("left", "right"):
        raise UsageError("--side must be left or right")
    element_text = merged.get("element") or ""
    algebra = algebra_for(system, weights)
    action = CactusAction(algebra)
    for letter in word:
        if not action.presentation.is_generator(letter):
            raise UsageError("%r is not a cactus generator" % (",".join(letter),))
    try:
        w = system.parse_element(element_text).index
    except KeyError as exc:
        raise UsageError("unknown generator in --element: %s" % exc)
    image, sign = action.act_with_sign(word, side, w)
    doc = {
        "word": render_word(word),
        "side": side,
        "element": _render(system, w),
        "image": _render(system, image),
        "sign": sign,
    }
    _emit(merged["out"], "cactus_act.json", _json_text(doc), primary=True)
    return 0


def _cmd_cactus_orbits(args) -> int:
    system, weights, merged = _load_context(args)
    _require_desk_scale(system, merged)
    side = merged.get("side") or "two-sided"
    if side not in ("left", "right", "two-sided", "two_sided"):
        raise UsageError("--side must be left, right or two-sided")
    algebra = algebra_for(system, weights)
    action = CactusAction(algebra)
    orbits = action.orbits(side)
    doc = {
        "side": side.replace("_", "-"),
        "orbits": [[_render(system, w) for w in sorted(o)] for o in orbits],
    }
    _emit(merged["out"], "cactus_orbits.json", _json_text(doc), primary=True)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cactuscells", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, parabolic=False, side=False, check=False, word=False):
        p.add_argument("--type", help='named type, e.g. "B3", "I2(5)"')
        p.add_argument("--matrix", help="Coxeter matrix as JSON (0 encodes an infinite bond)")
        p.add_argument("--labels", help="comma-separated generator labels for --matrix")
        p.add_argument("--weights", help='e.g. "s=1,t=2"; tuples as "s=1:0"')
        p.add_argument("--config", help="JSON config file mirroring the flags")
        p.add_argument("--out", help="directory for artifact files (default: stdout)")
        p.add_argument("--jobs", type=int, help="accepted for compatibility; has no effect")
        p.add_argument("--allow-large", action="store_true", help="acknowledge runtime for |W| > %d" % LARGE_GROUP_THRESHOLD)
        if parabolic:
            p.add_argument("--parabolic", help="comma-separated generators of W_I (default: all)")
        if side:
            p.add_argument("--side", help="left | right (orbits also: two-sided)")
        if check:
            p.add_argument("--check", help="comma-separated subset of P1,P4,P8,P9")
        if word:
            p.add_argument("--word", help='cactus word, letters separated by "|", e.g. "s,t|s"')
            p.add_argument("--element", help='element as dotted word, e.g. "s.t.s" ("" = identity)')

    p = sub.add_parser("group", help="enumerate the group with lengths and descents")
    common(p)
    p.add_argument("--max-length", type=int, dest="max_length", help="length bound (required for infinite W)")
    p.set_defaults(func=_cmd_group)

    p = sub.add_parser("klbasis", help="dump the p* table (and optionally the h table)")
    common(p)
    p.add_argument("--with-h", action="store_true", dest="with_h", help="also dump structure constants")
    p.set_defaults(func=_cmd_klbasis)

    p = sub.add_parser("cells", help="left/right/two-sided cells with their preorders")
    common(p)
    p.set_defaults(func=_cmd_cells)

    p = sub.add_parser("afunction", help="a-function, alpha, Delta, Duflo set, d-map")
    common(p)
    p.set_defaults(func=_cmd_afunction)

    p = sub.add_parser("cellmaps", help="longest-element involutions of a parabolic, extended to W")
    common(p, parabolic=True, side=True)
    p.set_defaults(func=_cmd_cellmaps)

    p = sub.add_parser("conjectures", help="check P1/P4/P8/P9 for (W, S, phi)")
    common(p, check=True)
    p.set_defaults(func=_cmd_conjectures)

    p = sub.add_parser("cactus", help="cactus group action on W")
    csub = p.add_subparsers(dest="cactus_command", required=True)
    pv = csub.add_parser("verify", help="verify all defining relations on the realized permutations")
    common(pv)
    pv.set_defaults(func=_cmd_cactus_verify)
    pa = csub.add_parser("act", help="apply a cactus word to an element")
    common(pa, side=True, word=True)
    pa.set_defaults(func=_cmd_cactus_act)
    po = csub.add_parser("orbits", help="orbit partition of W under the action")
    common(po, side=True)
    po.set_defaults(func=_cmd_cactus_orbits)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except (TheoremViolationError, ConsistencyError) as exc:
        dump = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, TheoremViolationError):
            dump["witness"] = exc.witness
        print(_json_text(dump), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
