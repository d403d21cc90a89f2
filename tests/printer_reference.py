"""The printer that `dsl.print_program` replaced, the reference for it.

It tests each node's class with `isinstance` and builds text with f-strings
around generator joins; the tests require both printers to give the same
text for every program, including shapes the parser never makes.
"""
from taserial.asm import (
    And,
    Assign,
    Atom,
    Call,
    ChooseDo,
    Eq,
    Exists,
    Forall,
    ForallDo,
    Formula,
    If,
    Let,
    Lt,
    Not,
    Or,
    Par,
    Rule,
    Seq,
    Skip,
    Term,
    Var,
    is_static,
)
from taserial.dsl import MachineProgram, print_value


def print_term(t: Term) -> str:
    if isinstance(t, Var):
        return t.name
    if t.func in ("+", "-") and len(t.args) == 2:
        return f"({print_term(t.args[0])} {t.func} {print_term(t.args[1])})"
    if is_static(t.func):
        return t.func
    return f"{t.func}({', '.join(print_term(a) for a in t.args)})"


def print_formula(f: Formula) -> str:
    if isinstance(f, Atom):
        return f"{f.pred}({', '.join(print_term(a) for a in f.args)})"
    if isinstance(f, Not):
        return f"not ({print_formula(f.sub)})"
    if isinstance(f, And):
        return f"({print_formula(f.left)}) and ({print_formula(f.right)})"
    if isinstance(f, Or):
        return f"({print_formula(f.left)}) or ({print_formula(f.right)})"
    if isinstance(f, Eq):
        return f"{print_term(f.left)} = {print_term(f.right)}"
    if isinstance(f, Lt):
        return f"{print_term(f.left)} < {print_term(f.right)}"
    if isinstance(f, Forall):
        return f"forall {f.var} . ({print_formula(f.body)})"
    if isinstance(f, Exists):
        return f"exists {f.var} . ({print_formula(f.body)})"
    raise TypeError(f"not a formula: {f!r}")


def print_rule(r: Rule) -> str:
    if isinstance(r, Skip):
        return "skip"
    if isinstance(r, Assign):
        return f"{print_term(r.lhs)} := {print_term(r.rhs)}"
    if isinstance(r, If):
        return (f"if {print_formula(r.guard)} then {print_rule(r.then)}"
                f" else {print_rule(r.orelse)}")
    if isinstance(r, Let):
        return f"let {r.var} = {print_term(r.bind)} in {print_rule(r.body)}"
    if isinstance(r, ForallDo):
        return f"forall {r.var} with {print_formula(r.guard)} do {print_rule(r.body)}"
    if isinstance(r, ChooseDo):
        return f"choose {r.var} with {print_formula(r.guard)} do {print_rule(r.body)}"
    if isinstance(r, (Par, Seq)):
        keyword = "par" if isinstance(r, Par) else "seq"
        return f"{keyword} {{ {' ; '.join(print_rule(i) for i in r.items)} }}"
    if isinstance(r, Call):
        return f"call {r.rule}({', '.join(print_term(a) for a in r.args)})"
    raise TypeError(f"not a rule: {r!r}")


def print_program(prog: MachineProgram) -> str:
    lines = [f"machine {prog.name}"]
    for label, names in (("shared", prog.shared), ("monitored", prog.monitored),
                         ("output", prog.output)):
        if names:
            rendered = []
            for n in sorted(names):
                if n in prog.arities:
                    rendered.append(f"{n}/{prog.arities[n]}")
                else:
                    rendered.append(n)
            lines.append(f"{label} {' '.join(rendered)}")
    for loc, val in prog.inits:
        args = ", ".join(print_value(a) for a in loc.args)
        lines.append(f"init {loc.func}({args}) := {print_value(val)}")
    lines.append(f"terminated: {print_formula(prog.terminated)}")
    for rname in sorted(prog.named_rules):
        named = prog.named_rules[rname]
        lines.append(f"rule {rname}({', '.join(named.params)}): {print_rule(named.body)}")
    lines.append(f"rule: {print_rule(prog.main_rule)}")
    return "\n".join(lines) + "\n"
