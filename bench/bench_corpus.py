"""Seeded generator of Java methods for the benchmark workloads.

The benchmark owns its inputs: nothing here is shared with the package's
tests, so a change to the test corpus cannot move a benchmark number.
Methods are built from a declaration block and typed statements over the
declared variables, which gives every workload control over two
properties the program's cost depends on: input length (token count
against ``max_seq_len``) and where each variable is first used.
"""

from __future__ import annotations

import numpy as np

WORDS = [
    "count", "total", "value", "index", "buffer", "size", "name", "item",
    "row", "sum", "data", "temp", "result", "flag", "node", "key", "line",
    "path", "offset", "limit", "width", "height", "score", "price", "user",
    "order", "file", "text", "entry", "cache",
]

# type -> (declaration initialiser, statements over {v}; {u} is an int variable
# and {n} a literal)
TYPES = {
    "int": ("{n}", [
        "{v} += {n};",
        "while ({v} < {u}) {{\n{i}    {v} *= 2;\n{i}}}",
        "if ({v} > {n}) {{\n{i}    {v} = {v} - {u};\n{i}}}",
        "for (int k = 0; k < {v}; k++) {{\n{i}    {u} += k;\n{i}}}",
        "{v} = Math.max({v}, {u});",
    ]),
    "String": ('"{w}"', [
        "{v} = {v}.trim();",
        "out.println({v} + {u});",
        'if ({v}.isEmpty()) {{\n{i}    {v} = "{w}";\n{i}}}',
    ]),
    "double": ("{n}.5", [
        "{v} = {v} * {u} / 2.0;",
        "{v} += Math.sqrt({u});",
    ]),
    "boolean": ("false", [
        "{v} = {u} > {n};",
        "if ({v}) {{\n{i}    {u}++;\n{i}}}",
    ]),
    "List<String>": ("new ArrayList<>()", [
        '{v}.add("{w}" + {u});',
        "for (String s : {v}) {{\n{i}    out.println(s);\n{i}}}",
    ]),
    "StringBuilder": ("new StringBuilder()", [
        "{v}.append({u});",
        '{v}.append("{w}").append({u});',
    ]),
}
TYPE_NAMES = list(TYPES)

# The statements above that declare a loop variable, each with the form it
# takes when every local is declared at the top of the method: the loop
# variable is then the local ``k``, declared there with the others.
HOISTED = {
    "for (int k = 0; k < {v}; k++) {{\n{i}    {u} += k;\n{i}}}":
        "for (k = 0; k < {v}; k++) {{\n{i}    {u} += k;\n{i}}}",
    "for (String s : {v}) {{\n{i}    out.println(s);\n{i}}}":
        "for (k = 0; k < {v}.size(); k++) {{\n{i}    out.println({v}.get(k));\n{i}}}",
}


def _camel(words: list[str]) -> str:
    return words[0] + "".join(w.capitalize() for w in words[1:])


def _fresh_name(rng: np.random.Generator, taken: set[str]) -> str:
    while True:
        k = int(rng.integers(1, 4))
        name = _camel([WORDS[j] for j in rng.choice(len(WORDS), size=k, replace=False)])
        if name not in taken:
            taken.add(name)
            return name


def make_method(rng: np.random.Generator, tag: int, num_vars: int,
                num_statements: int, declare_first: bool) -> str:
    """One method with ``num_vars`` locals and ``num_statements`` statements.

    With ``declare_first`` every local, loop variables included, is
    declared at the top, so each variable occurs near the start of the
    method however long it is; otherwise each local is declared just before
    its first statement, and in a long method a late variable can occur
    only past the model window.
    """
    taken: set[str] = set()
    param = _fresh_name(rng, taken)
    variables = [(TYPE_NAMES[int(rng.integers(len(TYPE_NAMES)))], _fresh_name(rng, taken))
                 for _ in range(num_vars)]
    ints = [param] + [name for typ, name in variables if typ == "int"]
    indent = "    "

    def declaration(typ: str, name: str) -> str:
        init = TYPES[typ][0].format(n=int(rng.integers(1, 900)),
                                    w=WORDS[int(rng.integers(len(WORDS)))])
        return f"{indent}{typ} {name} = {init};"

    # Each variable is used at least once; the rest of the statements go to
    # variables drawn uniformly.
    owners = list(range(num_vars)) + [int(rng.integers(num_vars))
                                      for _ in range(max(0, num_statements - num_vars))]
    if not declare_first:
        owners.sort()
    lines = [declaration(*v) for v in variables] if declare_first else []
    declared: set[int] = set()
    hoisted_k = False
    for owner in owners:
        typ, name = variables[owner]
        if not declare_first and owner not in declared:
            declared.add(owner)
            lines.append(declaration(typ, name))
        templates = TYPES[typ][1]
        template = templates[int(rng.integers(len(templates)))]
        if declare_first and template in HOISTED:
            template = HOISTED[template]
            if not hoisted_k:
                hoisted_k = True
                lines.insert(num_vars, f"{indent}int k = 0;")
        lines.append(indent + template.format(
            v=name, u=ints[int(rng.integers(len(ints)))], n=int(rng.integers(1, 900)),
            w=WORDS[int(rng.integers(len(WORDS)))], i=indent))
    ret = ints[-1]
    return "\n".join([f"int method{tag}(int {param}) {{", *lines,
                      f"{indent}return {ret};", "}"])


def generate_methods(seed: int, count: int, vars_range: tuple[int, int],
                     statements_range: tuple[int, int], declare_first: bool) -> list[str]:
    """``count`` distinct methods; ranges are inclusive.

    Sizes follow a fixed schedule, spread evenly over the ranges, and only
    the content comes from the seed: seeds then differ in what the methods
    say but not in how long they are, which keeps the cost of a workload
    nearly the same from seed to seed.
    """
    rng = np.random.default_rng(seed)
    return [
        make_method(rng, tag,
                    vars_range[0] + tag * (vars_range[1] - vars_range[0] + 1) // count,
                    statements_range[0]
                    + tag * (statements_range[1] - statements_range[0] + 1) // count,
                    declare_first)
        for tag in range(count)
    ]
