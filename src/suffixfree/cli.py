"""Command-line interface.

Exit codes: 0 = all asserted bounds met, 1 = an asserted bound missed,
2 = usage or budget error.  DFAs are read and written in the JSON
interchange format (states / alphabet / transitions / initial / finals).
"""

from __future__ import annotations

import csv
import io
import json
import sys
import textwrap

import click

from .verify import (
    ALIASES,
    MEASURES,
    search_subsemigroups,
    verify as run_measure,
    verify_all,
)
from .atoms import atom_complexity, atom_report, atoms as atoms_of
from .automata import BudgetError, Dfa
from .langops import (
    BooleanOp,
    boolean,
    concat,
    is_suffix_free,
    reverse,
    star,
)
from .semigroups import (
    BSF,
    MAX_CLOSURE_ELEMENTS,
    VSF,
    WSF,
    _generated_in,
    _letter_maps,
    colliding_pairs,
    focused_pairs,
    generate,
    is_subsemigroup_of,
    semigroup_size,
    transition_semigroup,
)
from .witnesses import binary_product_pair, d5, d6

FORMATS = click.Choice(["json", "text", "csv"])
#: A DFA interchange file, or "-" for stdin; a directory is a usage error.
DFA_FILE = click.Path(exists=True, dir_okay=False, allow_dash=True)


def _emit(text: str, out: str) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        click.echo(text)


def _load_dfa(path: str) -> Dfa:
    with click.open_file(path) as fh:
        return Dfa.from_dict(json.load(fh))


def _render_dfa(d: Dfa, fmt: str, dot: bool) -> str:
    if dot:
        return d.to_dot()
    doc = d.to_dict()
    if fmt == "json":
        return json.dumps(doc, indent=2)
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["states", d.state_count])
        w.writerow(["alphabet"] + list(d.alphabet))
        for a in d.alphabet:
            w.writerow([a] + list(d.delta[a]))
        w.writerow(["initial", d.initial])
        w.writerow(["finals"] + sorted(d.finals))
        return buf.getvalue().rstrip("\n")
    lines = [f"states: {d.state_count}",
             f"alphabet: {' '.join(d.alphabet)}"]
    for a in d.alphabet:
        lines.append(f"  {a}: {list(d.delta[a])}")
    lines.append(f"initial: {d.initial}")
    lines.append(f"finals: {sorted(d.finals)}")
    return "\n".join(lines)


def _cell(value, sep=" "):
    """A csv cell: a dict as sorted key=value words, a list as its items
    joined by spaces (a nested list's items by commas)."""
    if isinstance(value, dict):
        return " ".join(f"{k}={v}" for k, v in sorted(value.items()))
    if isinstance(value, list):
        return sep.join(str(_cell(v, ",")) for v in value)
    return value


def _show(doc, fmt: str, out: str, line=str, indent=2) -> None:
    """Write doc, a dict or a list of rows (flat dicts or lists), as json,
    text ("key: value" lines for a dict, line(row) per row) or csv (a
    header of keys when the rows are dicts).  Then exit 1 if a dict row
    has met false and asserted true or absent."""
    rows = [doc] if isinstance(doc, dict) else doc
    if fmt == "json":
        text = json.dumps(doc, indent=indent)
    elif fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        if rows and isinstance(rows[0], dict):
            w.writerow(rows[0])
        cells = [r.values() if isinstance(r, dict) else [r] for r in rows]
        w.writerows([_cell(v) for v in c] for c in cells)
        text = buf.getvalue().rstrip("\n")
    elif isinstance(doc, dict):
        text = "\n".join(f"{k}: {v}" for k, v in doc.items())
    else:
        text = "\n".join(map(line, rows)) or "(none)"
    _emit(text, out)
    if any(isinstance(r, dict) and r.get("met") is False and r.get("asserted", True)
           for r in rows):
        sys.exit(1)


@click.group()
def main() -> None:
    """Complexity of suffix-free regular languages."""


# ---------------------------------------------------------------------------
# witness

@main.group()
def witness() -> None:
    """Construct witness DFAs (published state numbering)."""


def _witness_options(fn):
    for deco in (
        click.option("--dialect", default=None, help="comma-separated roles, - drops"),
        click.option("--format", "fmt", type=FORMATS, default="json"),
        click.option("--dot", is_flag=True, help="emit DOT instead"),
        click.option("--out", default=None, help="write to file instead of stdout"),
    ):
        fn = deco(fn)
    return fn


@witness.command("d5")
@click.option("--n", type=int, required=True)
@_witness_options
def witness_d5(n, dialect, fmt, dot, out):
    """Ternary star/product/boolean witness, n >= 6."""
    _emit(_render_dfa(d5(n, dialect), fmt, dot), out)


@witness.command("d6")
@click.option("--n", type=int, required=True)
@_witness_options
def witness_d6(n, dialect, fmt, dot, out):
    """Quinary boolean/reversal/syntactic/atom witness, n >= 4."""
    _emit(_render_dfa(d6(n, dialect), fmt, dot), out)


@witness.command("product-binary")
@click.option("--m", type=int, required=True)
@click.option("--n", type=int, required=True)
@click.option("--format", "fmt", type=FORMATS, default="json")
@click.option("--dot", is_flag=True)
@click.option("--out", default=None)
def witness_product_binary(m, n, fmt, dot, out):
    """The two-letter product witness pair."""
    left, right = binary_product_pair(m, n)
    if fmt == "json" and not dot:
        _emit(json.dumps([left.to_dict(), right.to_dict()], indent=2), out)
        return
    parts = [_render_dfa(left, fmt, dot), _render_dfa(right, fmt, dot)]
    _emit("\n\n".join(parts), out)


# ---------------------------------------------------------------------------
# op

#: Operation name -> (number of input DFAs, the operation).
OPERATIONS = {
    "star": (1, star), "concat": (2, concat), "reverse": (1, reverse),
    **{op.value: (2, lambda x, y, op=op: boolean(x, y, op)) for op in BooleanOp},
}


@main.command("op")
@click.argument("operation", type=click.Choice(list(OPERATIONS)))
@click.argument("inputs", nargs=-1, type=DFA_FILE)
@click.option("--format", "fmt", type=FORMATS, default="json")
@click.option("--dot", is_flag=True)
@click.option("--out", default=None)
@click.option("--budget-states", type=int, default=None,
              help="abort if the minimized result exceeds this many states")
def op_cmd(operation, inputs, fmt, dot, out, budget_states):
    """Apply an operation to DFA interchange files; the result is the
    minimal canonical DFA of the resulting language."""
    need, apply = OPERATIONS[operation]
    if len(inputs) != need:
        raise click.UsageError(
            f"{operation} takes {need} input file(s), got {len(inputs)}")
    result = apply(*[_load_dfa(p) for p in inputs])
    if budget_states is not None and result.state_count > budget_states:
        raise BudgetError(
            f"result has {result.state_count} states, budget {budget_states}")
    _emit(_render_dfa(result, fmt, dot), out)


# ---------------------------------------------------------------------------
# semigroup

@main.group()
def semigroup() -> None:
    """Transition-semigroup computations on DFA interchange files."""


BUDGET_ELEMENTS = click.option(
    "--budget-elements", type=int, default=MAX_CLOSURE_ELEMENTS, show_default=True,
    help="abort if the semigroup exceeds this many elements")


def _cardinality(degree: int, gens: list, budget: int) -> int:
    """The size of the semigroup gens generate, counted by R-classes
    (semigroup_size) without listing it.  A count that would pass its
    own cap lists the semigroup under budget instead, as a group too
    large to count can still be listed.  Raises BudgetError past
    budget."""
    try:
        size = semigroup_size(degree, gens)
    except BudgetError:
        return len(generate(degree, gens, max_elements=budget))
    if size > budget:
        raise BudgetError(f"the semigroup has {size} elements, "
                          f"over max_elements={budget}")
    return size


@semigroup.command("generate")
@click.argument("input", type=DFA_FILE)
@click.option("--format", "fmt", type=FORMATS, default="text")
@click.option("--out", default=None)
@click.option("--elements", "show_elements", is_flag=True,
              help="list every element, not just the cardinality")
@BUDGET_ELEMENTS
def semigroup_generate(input, fmt, out, show_elements, budget_elements):
    """Cardinality (and optionally elements) of the transition semigroup
    of the minimal DFA."""
    degree, gens = _letter_maps(_load_dfa(input))
    if show_elements:
        sg = generate(degree, gens, max_elements=budget_elements)
        doc = {"degree": degree, "cardinality": len(sg),
               "elements": [list(t) for t in sg.sorted_elements()]}
    else:
        doc = {"degree": degree,
               "cardinality": _cardinality(degree, gens, budget_elements)}
    _show(doc, fmt, out)


@semigroup.command("classify")
@click.argument("input", type=DFA_FILE)
@click.option("--format", "fmt", type=FORMATS, default="text")
@click.option("--out", default=None)
@BUDGET_ELEMENTS
def semigroup_classify(input, fmt, out, budget_elements):
    """Membership of the transition semigroup in bsf/vsf/wsf, plus the
    suffix-freeness of the language itself.  vsf and wsf are read off
    the generators; both lie inside bsf, so the semigroup is listed, to
    check bsf element by element, only when it is in neither."""
    d = _load_dfa(input)
    degree, gens = _letter_maps(d)
    cardinality = _cardinality(degree, gens, budget_elements)
    in_vsf = degree >= 2 and _generated_in(gens, VSF)
    in_wsf = degree >= 2 and _generated_in(gens, WSF)
    in_bsf = in_vsf or in_wsf or (degree >= 2 and is_subsemigroup_of(
        generate(degree, gens, max_elements=budget_elements), BSF))
    doc = {
        "cardinality": cardinality,
        "suffix_free": is_suffix_free(d),
        "in_bsf": in_bsf,
        "in_vsf": in_vsf,
        "in_wsf": in_wsf,
    }
    _show(doc, fmt, out)


@semigroup.command("collisions")
@click.argument("input", type=DFA_FILE)
@click.option("--format", "fmt", type=FORMATS, default="text")
@click.option("--out", default=None)
@BUDGET_ELEMENTS
def semigroup_collisions(input, fmt, out, budget_elements):
    """Colliding and focused middle-state pairs of the transition
    semigroup."""
    sg = transition_semigroup(_load_dfa(input), max_elements=budget_elements)
    _show({"colliding": [list(p) for p in sorted(colliding_pairs(sg))],
           "focused": [list(p) for p in sorted(focused_pairs(sg))]}, fmt, out)


# ---------------------------------------------------------------------------
# atoms

@main.group("atoms")
def atoms_group() -> None:
    """Atoms of regular languages."""


@atoms_group.command("list")
@click.argument("input", type=DFA_FILE)
@click.option("--format", "fmt", type=FORMATS, default="text")
@click.option("--out", default=None)
def atoms_list(input, fmt, out):
    """Bases of all atoms of the input's language."""
    d = _load_dfa(input)
    bases = sorted((sorted(b) for b in atoms_of(d)), key=lambda b: (len(b), b))
    _show(bases, fmt, out, indent=None)


@atoms_group.command("complexity")
@click.argument("input", type=DFA_FILE)
@click.option("--basis", required=True,
              help="comma-separated state list; empty string for the empty basis")
@click.option("--format", "fmt", type=FORMATS, default="text")
@click.option("--out", default=None)
def atoms_complexity(input, basis, fmt, out):
    """Quotient complexity of one atom."""
    d = _load_dfa(input)
    states = frozenset(int(p) for p in basis.split(",") if p.strip() != "")
    _show({"basis": sorted(states), "complexity": atom_complexity(d, states)},
          fmt, out, indent=None)


@atoms_group.command("table")
@click.option("--n", type=int, required=True)
@click.option("--format", "fmt", type=FORMATS, default="text")
@click.option("--out", default=None)
def atoms_table(n, fmt, out):
    """Per-atom complexities and bounds for the quinary witness."""
    rows = [{"basis": list(r.basis), "complexity": r.complexity,
             "bound": r.bound, "met": r.met} for r in atom_report(d6(n))]
    _show(rows, fmt, out, line=lambda r: (
        f"{r['basis']}: complexity={r['complexity']} bound={r['bound']} "
        f"{'met' if r['met'] else 'MISSED'}"))


# ---------------------------------------------------------------------------
# verify and search

def _report_line(r: dict) -> str:
    status = "met" if r["met"] else "MISSED"
    note = "" if r["asserted"] else " (informational)"
    return (f"{r['measure']} {_cell(r['params'])}: computed={r['computed']} "
            f"bound={r['bound']} {status}{note} [{r['runtime_ms']}ms]")


def _listing(label: str, names) -> str:
    """label and the names, wrapped at spaces only, so no name breaks."""
    return textwrap.fill(f"{label}: {', '.join(names)}", width=76,
                         subsequent_indent="  ", break_on_hyphens=False)


# A "\b" line keeps click from rewrapping the paragraph below it.
@main.command("verify", epilog="\n".join([
    "\b", _listing("Measures", MEASURES),
    _listing("Aliases", [f"{a}={m}" for a, m in ALIASES.items()])]))
@click.argument("measure", metavar="MEASURE", type=click.Choice(
    [*MEASURES, *ALIASES, "all"], case_sensitive=False))
@click.option("--n", type=int, default=None)
@click.option("--m", type=int, default=None)
@click.option("--family", type=click.Choice(["d5", "d6"]), default=None,
              help="witness family of a boolean measure (default d6)")
@click.option("--format", "fmt", type=FORMATS, default="text")
@click.option("--out", default=None)
def verify_cmd(measure, n, m, family, fmt, out):
    """Check computed complexities against the bound formulas.

    MEASURE names one measure, run at the given parameters, or is all:
    every measure over its default sweep.
    """
    params = {k: v for k, v in (("n", n), ("m", m), ("family", family))
              if v is not None}
    if measure == "all" and params:
        raise click.UsageError("all takes no --n, --m or --family")
    reports = verify_all() if measure == "all" else run_measure(measure, **params)
    _show([r.to_dict() for r in reports], fmt, out, line=_report_line)


@main.command("search")
@click.option("--n", type=int, required=True)
@click.option("--cap", type=int, default=3,
              help="max generator-set size (<= 3)")
@click.option("--format", "fmt", type=FORMATS, default="text")
@click.option("--out", default=None)
def search_cmd(n, cap, fmt, out):
    """Exhaustively close all small generator subsets of bsf(n)."""
    _show(search_subsemigroups(n, cap=cap).to_dict(), fmt, out)


def run() -> None:
    try:
        main(standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        sys.exit(2)
    except click.ClickException as exc:
        exc.show()
        sys.exit(2)
    except click.exceptions.Abort:
        sys.exit(2)
    except BudgetError as exc:
        click.echo(f"budget error: {exc}", err=True)
        sys.exit(2)
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2)


if __name__ == "__main__":
    run()
