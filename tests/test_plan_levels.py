"""A plan level's ambient and classes against their construction by name.

The planner builds every node's classes as coefficient tuples by index
(B = 0, F = 1, E_j = j + 1) and its labels as text, with no ambient, and the
replay hands a base plan of its parent's (g, n - 1) the parent's ambient less
E_n.  On the inflate workload's family for g = 1..3 and n = 0..31, every
level's replay ambient equals plan_ambient(g, n), and every node's classes and
label equal `by_name_nodes`, the construction by generator name the planner
used before."""

from __future__ import annotations

from unittest import mock

import pytest

from conftest import by_name_nodes, recipe_target
from sympdiv import inflation, lattice
from sympdiv.checks import all_passed
from sympdiv.inflation import InflateNode, plan_ambient, verify_plan


def _levels(plan):
    """The plan and every base plan below it, outermost first."""
    out = [plan]
    while out[-1].nodes[0].base is not None:
        out.append(out[-1].nodes[0].base)
    return out


def _nodes(level):
    return [(nd.z, nd.label) if isinstance(nd, InflateNode) else (nd.z_diag, nd.z_down, nd.label)
            for nd in level.nodes[1:]]


@pytest.mark.parametrize("g", [1, 2, 3])
def test_every_level_equals_its_construction_by_name(g):
    built = []
    with mock.patch.object(lattice.AmbientLattice, "__post_init__", lambda x: built.append(x)), \
            mock.patch.object(lattice.HomologyClass, "__post_init__", lambda x: built.append(x)):
        plans = [inflation._build(g, recipe_target(g, n).entries) for n in range(32)]
    assert built == []  # the planner builds no ambient and no class
    for n, plan in enumerate(plans):
        levels = _levels(plan)
        assert [level.n for level in levels] == (list(range(n, 0, -1)) or [0])
        assert [_nodes(level) for level in levels] == [by_name_nodes(g, level.n)
                                                      for level in levels]
        with mock.patch.object(inflation, "_replay", wraps=inflation._replay) as replays:
            assert all_passed(verify_plan(plan))
        top, *below = replays.call_args_list
        # the outermost level builds its ambient; every base plan is handed one
        assert top.args == (plan, top.args[1]) and len(below) == len(levels) - 1
        for c, level in zip(below, levels[1:]):
            assert c.args[0] is level and c.args[3] == plan_ambient(g, level.n)
