"""The benchmark's own check of an ``mcgverify run --format json`` report.

Expected values are recomputed here from the closed forms stated in the
paper (see README), from the claim id alone; the package's ``Claim.expected``
is never consulted:

* ord s = g (even g) or 2g (odd g); ord s' = g-1 or 2(g-1); ord r = g;
  ord r' = g-1; the genus-3 and genus-5 generators have the stated orders
  6, 4, 2 and 6;
* twists, and products and conjugates of twists, have homology determinant
  +1; crosscap transpositions u_i and the crosscap slide y have -1;
  det r = (-1)^(g-1), det r' = (-1)^g, and conjugation leaves them unchanged;
* the order-k rotation of the symmetric model with p nonorientable summands
  has determinant (-1)^p for even k and 1 for odd k.

Every other claim must simply report ``pass``.
"""

from __future__ import annotations

import hashlib
import json
import re

ORDER_ID = re.compile(r"thm1\.order\.(?P<elt>[a-z0-9-]+)\.g(?P<g>\d+)")
DET_ID = re.compile(r"(?P<family>twist|mcg|thm1|tsub)\.det\.(?P<elt>[a-z0-9-]+)\.g(?P<g>\d+)")
EG_DET_ID = re.compile(r"lemma-embed\.det\.k(?P<k>\d+)\.p(?P<p>\d+)\.q\d+(\.x)?")

# orders stated for the small-genus cases: element -> (genus, order)
STATED_ORDERS = {"st-beta": (5, 6), "t12": (3, 6), "t112": (3, 4), "u2": (3, 2)}

DET_ELEMENTS = {
    "twist": re.compile(r"a\d+|b|e"),
    "tsub": re.compile(r"s|stbeta|ysy|xsx"),
    "mcg": re.compile(r"u\d+|y"),
    "thm1": re.compile(r"r|rprime|xrx|xrprimex"),
}


def order_reference(elt: str, g: int):
    even = g % 2 == 0
    closed = {
        "s": g if even else 2 * g,
        "sprime": g - 1 if even else 2 * (g - 1),
        "r": g,
        "rprime": g - 1,
    }
    if elt in closed:
        return closed[elt]
    genus, order = STATED_ORDERS.get(elt, (None, None))
    return order if genus == g else None


def det_reference(family: str, elt: str, g: int):
    if not DET_ELEMENTS[family].fullmatch(elt):
        return None
    if family in ("twist", "tsub"):
        return 1
    if family == "mcg":
        return -1
    det_r, det_rprime = (-1) ** (g - 1), (-1) ** g
    return det_r if elt in ("r", "xrx") else det_rprime


def reference(claim_id: str):
    """(kind, expected value) for an order, determinant or eg_det claim id;
    (None, None) for other claims; (kind, None) for an id of a checked kind
    that the reference does not know."""
    m = EG_DET_ID.fullmatch(claim_id)
    if m:
        k, p = int(m["k"]), int(m["p"])
        return "eg_det", (-1) ** p if k % 2 == 0 else 1
    if claim_id.startswith("lemma-embed."):
        return None, None
    m = ORDER_ID.fullmatch(claim_id)
    if m:
        return "order", order_reference(m["elt"], int(m["g"]))
    if ".order." in claim_id:
        return "order", None
    m = DET_ID.fullmatch(claim_id)
    if m:
        return "determinant", det_reference(m["family"], m["elt"], int(m["g"]))
    if ".det." in claim_id:
        return "determinant", None
    return None, None


def check_claims(reports) -> dict:
    """claim id -> reason, for every claim that is not ``pass`` or whose
    observed value differs from the reference."""
    failures = {}
    for entry in reports:
        cid = entry["id"]
        if entry["status"] != "pass":
            failures[cid] = f"status {entry['status']}"
            continue
        kind, expected = reference(cid)
        if kind is None:
            continue
        observed = entry["observed"]
        if expected is None:
            failures[cid] = f"no reference value for this {kind} claim"
        elif type(observed) is not int or observed != expected:
            failures[cid] = f"observed {observed!r}, reference {expected}"
    return failures


def digest(reports) -> str:
    """sha256 of the report with ``millis`` removed: equal digests mean the
    same verdicts, observed values and witnesses."""
    stripped = [{k: v for k, v in entry.items() if k != "millis"} for entry in reports]
    text = json.dumps(stripped, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
