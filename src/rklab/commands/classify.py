"""``rklab classify``: the verdict on a distribution triple."""
from __future__ import annotations

import argparse

from . import _emit


def arguments(p: argparse.ArgumentParser) -> None:
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--small", action="store_true")
    group.add_argument("--tc", action="store_true")
    p.add_argument("--triple", required=True, metavar="P,L,NPL")
    p.add_argument("--no-ch", action="store_true")


def _parse_triple(text: str) -> Cm3Triple:
    from ..cardinal import parse_card
    from ..distribution import Cm3Triple

    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"triple must have three components, got {text!r}")
    return Cm3Triple(*(parse_card(p) for p in parts))


def run(args: argparse.Namespace) -> int:
    from ..distribution import classify_triple

    triple = _parse_triple(args.triple)
    theory_class = "small" if args.small else "tc"
    verdict = classify_triple(triple, theory_class, ch=not args.no_ch)
    _emit(args, [  # one plain line stands against five records
        (None, None, f"{triple.render()}: {verdict.render()}"),
        ("triple", triple.render(), None),
        ("status", verdict.status, None),
        ("case", verdict.case if verdict.case is not None else "-", None),
        ("reason", verdict.reason or "-", None),
        ("flags", ",".join(verdict.flags) or "-", None),
    ])
    return 0
