"""3-CNF formulas: validation, DIMACS parsing, assignments.

Clauses carry exactly three literals over three distinct variables (so no
clause repeats a variable or contains a complementary pair); the reductions
built on top rely on both restrictions.
"""

from collections import namedtuple
from itertools import product


class CnfError(Exception):
    """Malformed formula text or clause structure."""


def _is_int(value):
    """bool is an int subclass, but True is no variable count or literal."""
    return isinstance(value, int) and not isinstance(value, bool)


class CnfFormula(namedtuple("CnfFormula", "num_vars clauses")):
    """A 3-CNF formula; variables are 1..num_vars, literals signed ints."""

    __slots__ = ()

    def __new__(cls, num_vars, clauses):
        if not _is_int(num_vars):
            raise CnfError("variable count %r is not an integer" % (num_vars,))
        if num_vars < 0:
            raise CnfError("negative variable count")
        clauses = tuple(tuple(c) for c in clauses)
        for idx, clause in enumerate(clauses, start=1):
            if len(clause) != 3:
                raise CnfError("clause %d has %d literals, want exactly 3"
                               % (idx, len(clause)))
            for lit in clause:
                if not _is_int(lit):
                    raise CnfError("clause %d: literal %r is not an integer"
                                   % (idx, lit))
                if lit == 0 or abs(lit) > num_vars:
                    raise CnfError("clause %d: literal %d out of range"
                                   % (idx, lit))
            if len({abs(lit) for lit in clause}) != 3:
                raise CnfError("clause %d repeats a variable" % idx)
        return super().__new__(cls, num_vars, clauses)

    def _replace(self, **fields):
        """A copy with `fields` changed, checked like a new formula."""
        return type(self)(**{**self._asdict(), **fields})

    @property
    def num_clauses(self):
        return len(self.clauses)

    def satisfied_by(self, assignment):
        """True when every clause has a literal made true by `assignment`."""
        return all(any(assignment[abs(lit)] == (lit > 0) for lit in clause)
                   for clause in self.clauses)


def parse_int(token):
    """The integer an optional '-' and ASCII digits spell, else None; int()
    would also take Unicode digits, a '+' sign and '_' separators."""
    digits = token[1:] if token.startswith("-") else token
    if digits.isascii() and digits.isdigit():
        return int(token)
    return None


def parse_dimacs(text):
    """Parse DIMACS CNF text into a CnfFormula.

    Accepts 'c' comment lines and blank lines; requires a 'p cnf <vars>
    <clauses>' header and zero-terminated clauses.  A '%' line (the SATLIB
    end marker) ends the formula.
    """
    header = None
    clauses = []
    current = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line.startswith("%"):
            break
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise CnfError("line %d: duplicate header" % lineno)
            fields = line.split()
            if len(fields) != 4 or fields[1] != "cnf":
                raise CnfError("line %d: malformed header %r" % (lineno, raw))
            header = (parse_int(fields[2]), parse_int(fields[3]))
            if None in header:
                raise CnfError("line %d: non-numeric header counts" % lineno)
            continue
        if header is None:
            raise CnfError("line %d: clause before header" % lineno)
        for tok in line.split():
            lit = parse_int(tok)
            if lit is None:
                raise CnfError("line %d: bad literal %r" % (lineno, tok))
            if lit == 0:
                clauses.append(tuple(current))
                current = []
            else:
                current.append(lit)
    if header is None:
        raise CnfError("missing 'p cnf' header")
    num_vars, num_clauses = header
    if current:
        raise CnfError("final clause is not zero-terminated")
    if len(clauses) != num_clauses:
        raise CnfError("header promises %d clauses, found %d"
                       % (num_clauses, len(clauses)))
    return CnfFormula(num_vars, tuple(clauses))


def format_dimacs(formula):
    """Serialize to DIMACS text; parse(format(f)) == f."""
    lines = ["p cnf %d %d" % (formula.num_vars, formula.num_clauses)]
    for clause in formula.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def all_assignments(num_vars):
    """Every assignment as {var: bool}, in canonical counter order
    (variable 1 is the most significant position, False before True)."""
    for values in product((False, True), repeat=num_vars):
        yield {i + 1: values[i] for i in range(num_vars)}
