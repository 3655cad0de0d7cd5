"""The `scan --json` document, written record by record.

The document is `{"records": [...], "summary": {...}}`; each record holds
`profile` (one order per agent), `pne_factor` and `ef1_factor` (`json_frac`
blocks) and `bound_ok`, in that order.  `json.dumps(doc, indent=2)` would
need every record at once and runs the pure-Python encoder that `indent`
selects; `write_scan_json` writes the same bytes one record at a time.
"""

from __future__ import annotations

import functools
import json
import sys
from typing import Any


def _json_at(value: Any, depth: int) -> str:
    """`value` as `json.dumps(doc, indent=2)` writes it `depth` levels inside `doc`.

    Strings are dumped with their newlines escaped, so every newline here
    starts a line, and a nested line is indented by two spaces per level.
    """
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


_JSON_LITERALS = {True: "true", False: "false", None: "null"}


def write_scan_json(doc: dict[str, Any]) -> None:
    """Print `json.dumps(doc, indent=2)` and a newline, each record as it is pulled.

    The record layout is fixed, so it is written directly; each distinct
    order and each distinct (pne_factor, ef1_factor, bound_ok) tail is
    rendered once.  Nothing is written before the first record is pulled,
    so a scan its guard refuses prints nothing; every other scan has at
    least one record.
    """
    write = sys.stdout.write

    @functools.cache
    def order_text(order: tuple[int, ...]) -> str:
        return "        " + _json_at(order, 4)

    tails: dict[tuple[str, str, bool | None], str] = {}
    head = '{\n  "records": [\n'
    for entry in doc["records"]:
        profile = ",\n".join([order_text(tuple(order)) for order in entry["profile"]])
        pne, ef1, verdict = entry["pne_factor"], entry["ef1_factor"], entry["bound_ok"]
        tail = tails.get((pne["frac"], ef1["frac"], verdict))
        if tail is None:
            tail = tails[pne["frac"], ef1["frac"], verdict] = (
                f'      "pne_factor": {_json_at(pne, 3)},\n'
                f'      "ef1_factor": {_json_at(ef1, 3)},\n'
                f'      "bound_ok": {_JSON_LITERALS[verdict]}\n    }}')
        write(f'{head}    {{\n      "profile": [\n{profile}\n      ],\n{tail}')
        head = ",\n"
    write(f'\n  ],\n  "summary": {_json_at(doc["summary"], 1)}\n}}\n')
