"""README's library quick tour, run as written: each expression line's value is
checked against what its comment states."""

import ast
import re
from pathlib import Path

from ppinv.poly import Poly

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_tour() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library quick tour"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_tour_states_its_values():
    block = quick_tour()
    env, values = {}, {}  # the source of each expression line -> its value
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr):
            values[source] = eval(compile(ast.Expression(node.value), str(README), "eval"), env)
        else:
            exec(compile(ast.Module([node], type_ignores=[]), str(README), "exec"), env)
    field, ci = env["field"], env["ci"]
    assert values["params.is_permutation(a)"] is True
    assert values["params.evaluate(a, field(2))"] == field(3)
    assert values["params.inverse_value(a, field(3))"] == field(2)
    assert isinstance(ci.g, Poly) and isinstance(ci.h, Poly)
    assert values["params.inverse_polynomial(a)"] == Poly(field, [0, 0, 0, 1])  # x^3
    assert env["ys"].index.tolist() == [0, 1, 2, 3, 4]
    assert values["params.inverse_value(a, ys).index"].tolist() == [0, 1, 3, 2, 4]
    criterion = "params.criterion_power(field.element(np.arange(1, 5))) != field.one"
    assert values[criterion].tolist() == [False, True, True, False]
    assert values["tabulate(field, lambda x: params.evaluate(a, x)).is_bijection()"] is True
    assert values["linearized_inverse(field, 1, a)"] == Poly(field, [0, 4])  # -x
