#!/usr/bin/env python3
"""The four benchmark constructions and what each one demonstrates.

Each fixture is parameterized by exact rationals with validated strict
inequalities.  Its registry entry in `rrfair.FIXTURES` holds the builder and
the closed forms; `rrfair reproduce <name>` checks the same rows from the
command line.
"""

from rrfair import FIXTURES, build_fixture


def show(name: str) -> None:
    """Print each row of the fixture at its default parameters."""
    fixture = FIXTURES[name]
    params = fixture.parameters
    print(f"\n{name}:", ", ".join(f"{k} = {v}" for k, v in params.items()) or "no parameters")
    for quantity, closed_form, measured in fixture.rows(build_fixture(name), params):
        print(f"  {quantity}: closed form {closed_form}, measured {measured}")


print("available fixtures:", ", ".join(sorted(FIXTURES)))

# no-pne: two submodular tables on four goods; no reported profile reaches
# a factor above 3/4, so exact equilibria need not exist (see demo 05).
show("no-pne")

# bluff-tightness: an additive agent vs an OXS agent; the bluff profile's
# equilibrium factor 1/(2 - eps1 - eps2) tends to 1/2, so 1/2 is tight.
show("bluff-tightness")

# additive-tightness: two additive agents; a half-good equilibrium whose
# envy ratio sits exactly on the alpha/(2-alpha) bound.
show("additive-tightness")

# oxs-lower-bound: three additive agents and one OXS agent; the OXS agent's
# envy ratio stays near alpha/2, below which no general guarantee exists.
show("oxs-lower-bound")
