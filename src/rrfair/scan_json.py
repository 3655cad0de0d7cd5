"""The pieces that write a scan's output record by record, and the JSON ones.

A format is four `ScanFormat` pieces, and `cli.cmd_scan` runs the one loop
that writes each record as it is pulled, rendering each distinct order and
each distinct tail once.  `SCAN_JSON` writes the bytes of
`json.dumps(doc, indent=2)` and a newline, for the document
`{"records": [...], "summary": {...}}`; each record holds `profile` (one
order per agent), `pne_factor` and `ef1_factor` (`json_frac` blocks) and
`bound_ok`, in that order.  A scan refused part-way (a size guard, or a
rational past the digit limit) still closes its document: the records
written so far, then a summary over them that also holds `refused`, the
refusal's message.  `json.dumps` itself would need every record at once
and runs the pure-Python encoder that `indent` selects.
"""

from __future__ import annotations

import json
from typing import Any, Callable, NamedTuple


class ScanFormat(NamedTuple):
    """How one output format writes a scan: the loop joins these pieces."""

    order: Callable[[tuple[int, ...]], str]  # one agent's order
    tail: Callable[[dict[str, Any], dict[str, Any], bool | None], str]  # pne, ef1, bound_ok
    record: Callable[[int, list[str], str], str]  # its index, its orders' texts, its tail
    end: Callable[[dict[str, Any]], str]  # the summary document


def _json_at(value: Any, depth: int) -> str:
    """`value` as `json.dumps(doc, indent=2)` writes it `depth` levels inside `doc`.

    Strings are dumped with their newlines escaped, so every newline here
    starts a line, and a nested line is indented by two spaces per level.
    """
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def _json_record(index: int, orders: list[str], tail: str) -> str:
    head = '{\n  "records": [\n' if index == 0 else ",\n"
    profile = ",\n".join(orders)
    return f'{head}    {{\n      "profile": [\n{profile}\n      ],\n{tail}'


SCAN_JSON = ScanFormat(
    order=lambda order: "        " + _json_at(order, 4),
    tail=lambda pne, ef1, verdict: (f'      "pne_factor": {_json_at(pne, 3)},\n'
                                    f'      "ef1_factor": {_json_at(ef1, 3)},\n'
                                    f'      "bound_ok": {_json_at(verdict, 3)}\n    }}'),
    record=_json_record,
    # Only a scan refused before its first record has written no head.
    end=lambda summary: (('\n  ],' if summary["profiles"] else '{\n  "records": [],')
                         + f'\n  "summary": {_json_at(summary, 1)}\n}}\n'),
)
