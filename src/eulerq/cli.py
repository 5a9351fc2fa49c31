"""Command line front end: statistics, Q functions (`eulerian`), verify
suites (`suites`), character tables and expression expansion.

Exit codes are stable for scripting: 0 success, 1 a verification check
failed, 2 usage or parse error, 120 output that cannot be written.  JSON
output is key-sorted and compact, and verify runs its suites one after
another in suite table order, so identical inputs produce byte-identical
bytes.

At module level this imports only the standard library, and `import eulerq`
loads no package module, so a launch loads what its command reads: stats
the census (`permstats`); qfun and chartable the formulas (`eulerian`);
expand the bases (`symfunc`), and `eulerian` only for a Q[..] atom; verify
the suites, and every layer under them.  `_print_json` writes JSON itself, and
`_print_verify_json` the verify report straight from its checks through the
same encoder, so no command loads `json`.  `main` reads a plain command line
(a command, its positionals, then `--flag value` pairs) from the grammar
table `COMMANDS` itself.  It loads `argparse` only for help, usage errors and
the rarer valid forms, and builds from the same table the parser of the
command named, or of every command when none is.
"""

import itertools
import os
import sys
from collections import namedtuple
from math import factorial
from types import SimpleNamespace


class UsageError(Exception):
    pass


# The largest degree qfun, chartable and expand evaluate: at it every family
# takes at most 10 s CPU on one core, and at 24 one does not (BENCH_21.json).
# The census behind stats --n has its own limit, permstats.DEFAULT_CAP.
_MAX_DEGREE = 23


# The most rows stats --n N --table lists, one per word of S_N: at about 11 us
# and 0.7 KB a row, a launch at the limit takes under 1 s and about 50 MB
# (BENCH_17.json).
_MAX_TABLE_ROWS = 50_000


# JSON's two-character escapes; every other character outside printable
# ASCII is written as \uXXXX, as json.dumps writes it with ensure_ascii.
_JSON_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t",
                 "\b": "\\b", "\f": "\\f"}


def _json_string(s):
    """s as a JSON string, escaped as json.dumps escapes it."""
    if type(s) is not str:
        raise TypeError(f"JSON keys must be str, not {type(s).__name__}")
    if s.isascii() and s.isprintable() and '"' not in s and "\\" not in s:
        return '"' + s + '"'
    out = []
    for ch in s:
        escaped = _JSON_ESCAPES.get(ch)
        if escaped is None:
            code = ord(ch)
            if 0x20 <= code < 0x7f:
                escaped = ch
            elif code < 0x10000:
                escaped = f"\\u{code:04x}"
            else:  # a surrogate pair
                code -= 0x10000
                escaped = f"\\u{0xd800 | code >> 10:04x}\\u{0xdc00 | code & 0x3ff:04x}"
        out.append(escaped)
    return '"' + "".join(out) + '"'


def _json_encoder():
    """The encoders of one JSON document, for the types the commands print
    (dicts with str keys, lists, tuples, str, int, bool and None): value(x)
    writes x as compact, key-sorted JSON, and any other type, a subclass of
    these included, raises TypeError.  Each distinct string is escaped once
    per document: seen(s) is its escaped form if it was, else None, and
    string(s) escapes and keeps it.  seen takes a str subclass equal to a
    kept string for that string, so test a key's type before reading it."""
    quoted = {}
    seen = quoted.get

    def string(s):
        q = quoted[s] = _json_string(s)
        return q

    def value(x):
        t = type(x)
        if t is dict:
            return "{" + ",".join([((type(k) is str and seen(k)) or string(k)) + ":"
                                   + ((seen(v) or string(v)) if type(v) is str else value(v))
                                   for k, v in sorted(x.items())]) + "}"
        if t is str:
            return seen(x) or string(x)
        if t is int:
            return repr(x)
        if t is list or t is tuple:
            return "[" + ",".join([value(v) for v in x]) + "]"
        if x is None:
            return "null"
        if x is True:
            return "true"
        if x is False:
            return "false"
        raise TypeError(f"Object of type {t.__name__} is not JSON serializable")

    return seen, string, value


def _print_json(payload):
    """payload as one line of key-sorted, compact JSON: the bytes of
    json.dumps(payload, sort_keys=True, separators=(",", ":")), for the
    types _json_encoder writes, without loading `json`."""
    print(_json_encoder()[2](payload))


def _print_verify_json(mode, suite, passed, reports):
    """The verify envelope and its reports as one line of JSON, written
    straight from the reports: the bytes _print_json writes for
    {"command": "verify", "mode": mode, "passed": passed, "suite": suite,
    "suites": [r.to_jsonable() for r in reports]}, and TypeError where it
    raises.  The keys of the envelope, a report and a check are written in
    their sorted order; only a check's params are sorted, once, and, as
    Check.to_jsonable does, any list or tuple in them, a subclass included,
    is written as a list."""
    seen, string, value = _json_encoder()

    def plain(v):
        if type(v) is int:
            return repr(v)
        if isinstance(v, (list, tuple)):
            return "[" + ",".join([plain(x) for x in v]) + "]"
        return value(v)

    out = []
    for r in reports:
        checks = []
        for identity, params, status, witness in r.checks:
            line = ('{"identity":' + ((seen(identity) or string(identity))
                                      if type(identity) is str else value(identity))
                    + ',"params":{'
                    + ",".join([((type(k) is str and seen(k)) or string(k)) + ":" + plain(v)
                                for k, v in sorted(params.items())])
                    + '},"status":' + ((seen(status) or string(status))
                                       if type(status) is str else value(status)))
            if witness:
                line += ',"witness":' + value(witness)
            checks.append(line + "}")
        out.append('{"checks":[' + ",".join(checks) + '],"failed":' + value(r.failed)
                   + ',"passed":' + value(r.passed) + ',"suite":' + value(r.name) + "}")
    print('{"command":"verify","mode":' + value(mode) + ',"passed":' + value(passed)
          + ',"suite":' + value(suite) + ',"suites":[' + ",".join(out) + "]}")


def _check_degree(degree):
    if degree > _MAX_DEGREE:
        raise UsageError(f"degree {degree} exceeds the limit {_MAX_DEGREE}")


# ---------------------------------------------------------------------------
# verify driver
# ---------------------------------------------------------------------------

Suite = namedtuple("Suite", "name ci extended run")


def _suites():
    """The suites module, imported by the first suite that runs."""
    from . import suites
    return suites


# One row per verify suite, in the order `verify all` runs them: the bound n
# of each mode, and run(n, mode), the suite's verify_* call at bound n.  Each
# run looks its verify_* function up on `suites` when it runs and stores no
# reference, so a tracer or a test that rebinds it there sees every call.
SUITES = (
    Suite("genfun", 6, 6, lambda n, mode: _suites().verify_main_generating_function(n)),
    Suite("recurrences", 6, 7, lambda n, mode: _suites().verify_recurrences(n)),
    Suite("qexp", 6, 6, lambda n, mode: _suites().verify_qexp_generating_function(n)),
    Suite("series", 4, 8, lambda n, mode: _suites().verify_four_stat_series(n)),
    Suite("finite-spec", 5, 7, lambda n, mode: _suites().verify_finite_specialization(n)),
    Suite("derangements", 6, 6, lambda n, mode: _suites().verify_derangement_identities(n)),
    Suite("symmetry", 6, 7, lambda n, mode: _suites().verify_symmetry_unimodality(n)),
    Suite("positivity", 6, 8, lambda n, mode: _suites().verify_positivity(n)),
    Suite("characters", 6, 8, lambda n, mode: _suites().verify_character_formula(n)),
    Suite("structure", 6, 7,
          lambda n, mode: _suites().verify_structure_identities(n, min(n, 6), n)),
    Suite("specializations", 6, 8, lambda n, mode: _suites().verify_specializations(n)),
    Suite("related", 5, 6,
          lambda n, mode: _suites().verify_related(n, min(n, 4 if mode == "ci" else 6))),
)


def selected_entries(suite, mode, n_max):
    """(name, thunk) pairs for one suite or all, in suite table order.  Each
    suite runs at its bound for the mode; a nonzero n_max lowers that bound
    to n_max, but never below 1."""
    rows = [row for row in SUITES if suite in ("all", row.name)]
    if not rows:
        names = ", ".join(row.name for row in SUITES)
        raise UsageError(f"unknown suite {suite!r}; choose from: {names}, all")
    entries = []
    for row in rows:
        bound = row.ci if mode == "ci" else row.extended
        if n_max:
            bound = max(1, min(n_max, bound))
        entries.append((row.name, lambda run=row.run, n=bound: run(n, mode)))
    return entries


def cmd_verify(args):
    if args.n_max < 0:
        raise UsageError("--n-max must be nonnegative")
    entries = selected_entries(args.suite, args.mode, args.n_max)
    reports = [report_fn() for _, report_fn in entries]
    passed = all(r.ok for r in reports)
    if args.output == "json":
        _print_verify_json(args.mode, args.suite, passed, reports)
    else:
        for r in reports:
            print(r.summary())
            for c in r.failures():
                print(f"  FAIL {c.identity} {c.params} {c.witness}".rstrip())
        print("result: PASS" if passed else "result: FAIL")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

_STAT_NAMES = ("des", "exc", "maj", "comaj", "inv", "fix")

# The census projections stats --n reads its column sums from: exc and fix
# need no last letter, des and maj share it, and inv would multiply the rows
# of either pair.
_STAT_PROJECTIONS = (("exc", "fix"), ("des", "maj"), ("inv",))


def _parse_word(text):
    from .permstats import Permutation
    text = text.strip()
    try:
        if "," in text:
            word = [int(x) for x in text.split(",")]
        else:
            word = [int(ch) for ch in text]
        return Permutation(word)
    except ValueError as e:
        raise UsageError(str(e))


def _stat_totals(n):
    """Closed-form column sums over the whole symmetric group: each of the
    n-1 positions is a descent (an excedance) in half of S_n, each of the
    C(n,2) pairs is an inversion in half, and maj splits evenly with comaj;
    every letter is fixed in (n-1)! permutations."""
    eulerian = factorial(n) * (n - 1) // 2 if n >= 2 else 0
    mahonian = factorial(n) * n * (n - 1) // 4 if n >= 2 else 0
    return {
        "des": eulerian,
        "exc": eulerian,
        "maj": mahonian,
        "comaj": mahonian,
        "inv": mahonian,
        "fix": factorial(n) if n >= 1 else 0,
    }


def cmd_stats(args):
    from .permstats import CapacityError, _row, census, row_stat, stat_field, statistics
    if (args.perm is None) == (args.n is None):
        raise UsageError("give exactly one of a permutation word or --n")
    if args.perm is not None:
        st = statistics(_parse_word(args.perm))
        payload = {
            "word": list(st.word),
            "n": len(st.word),
            "Des": sorted(st.des_set),
            "Exc": sorted(st.exc_set),
            "Exd": sorted(st.exd_set),
            "cycle_type": list(st.cycle_type),
            "des": st.des, "exc": st.exc, "maj": st.maj,
            "comaj": st.comaj, "inv": st.inv, "fix": st.fix,
        }
        if args.output == "json":
            _print_json(payload)
        else:
            joiner = "" if len(st.word) < 10 and all(x < 10 for x in st.word) else ","
            print("word: " + joiner.join(map(str, st.word)))
            print(f"n: {payload['n']}")
            for key in ("Des", "Exc", "Exd"):
                print(f"{key}: {{{','.join(map(str, payload[key]))}}}")
            print("cycle type: " + (",".join(map(str, st.cycle_type)) or "()"))
            print("  ".join(f"{s}={payload[s]}" for s in _STAT_NAMES))
        return 0

    n = args.n
    if n < 0:
        raise UsageError("--n must be nonnegative")
    names = _STAT_NAMES
    if args.table:
        names = tuple(s.strip() for s in args.table.split(","))
        bad = [s for s in names if s not in _STAT_NAMES]
        if bad:
            raise UsageError(f"unknown statistics {bad}; choose from {_STAT_NAMES}")
        repeated = sorted({s for s in names if names.count(s) > 1})
        if repeated:
            raise UsageError(f"repeated statistics {repeated}; name each once")
        if factorial(n) > _MAX_TABLE_ROWS:
            raise UsageError(f"--table lists {factorial(n)} rows at n={n}, "
                             f"past the limit {_MAX_TABLE_ROWS}")
    # each column sum reads the one projection that holds its field, cut to
    # the fields the columns ask for
    wanted = {stat_field(s) for s in names}
    sums = {}
    try:
        for projection in _STAT_PROJECTIONS:
            fields = tuple(f for f in projection if f in wanted)
            if not fields:
                continue
            counts = census(n, fields)
            for s in names:
                if stat_field(s) in fields:
                    read = row_stat(s, n, fields)
                    sums[s] = sum(read(row) * c for row, c in counts.items())
    except CapacityError as e:
        raise UsageError(str(e))
    total = sum(counts.values())
    # word and statistics per permutation, only when a table is asked for
    rows = []
    if args.table:
        reads = [row_stat(s, n) for s in names]
        for w in itertools.permutations(range(1, n + 1)):
            row = _row(w)
            rows.append((w, [read(row) for read in reads]))
    want = _stat_totals(n)
    checked = {s: sums[s] == want[s] for s in names}
    if args.output == "json":
        payload = {
            "n": n,
            "permutations": total,
            "columns": list(names),
            "rows": [[list(w)] + vals for w, vals in rows] if args.table else None,
            "sums": {s: sums[s] for s in names},
            "cross_check": checked,
        }
        _print_json(payload)
    else:
        if n == 0:
            print("S_0 holds one permutation, the empty word; every statistic is 0")
        if args.table:
            width = max(n, 4)
            print("word".ljust(width) + "  " + "  ".join(s.rjust(5) for s in names))
            for w, vals in rows:
                word = "".join(map(str, w)) if n < 10 else ",".join(map(str, w))
                print(word.ljust(width) + "  " + "  ".join(str(v).rjust(5) for v in vals))
        print(f"permutations: {total}")
        print("sums: " + "  ".join(f"{s}={sums[s]}" for s in names))
        print("cross-check vs closed forms: " +
              ("OK" if all(checked.values()) else "MISMATCH " + str(checked)))
    return 0 if all(checked.values()) else 1


# ---------------------------------------------------------------------------
# qfun and chartable
# ---------------------------------------------------------------------------

def _parse_partition(text):
    """--lambda: the parts of an atom of expand (_ExprParser.int_list), with
    the end of the text for the closing bracket; "" is the empty partition."""
    parser = _ExprParser(text)
    lam = parser.partition(None)
    if parser.peek() is not None:
        raise UsageError(f"trailing input at {parser.peek()!r}")
    return lam


def cmd_qfun(args):
    if args.j is None or args.j < 0:
        raise UsageError("--j is required and must be nonnegative")
    if (args.lam is None) == (args.n is None):
        raise UsageError("give exactly one of --n or --lambda")
    if args.lam is not None:
        if args.k is not None:
            raise UsageError("--k applies only with --n")
        lam = _parse_partition(args.lam)
        params = ["lam", list(lam), "j", args.j]
        build = lambda eulerian: eulerian.q_symf_type(lam, args.j, args.basis)
    else:
        if args.n < 0:
            raise UsageError("--n must be nonnegative")
        _check_degree(args.n)
        if args.k is not None and args.k < 0:
            raise UsageError("--k must be nonnegative")
        params = ["n", args.n, "j", args.j, "k", args.k]
        build = lambda eulerian: eulerian.q_symf(args.n, args.j, args.k)
    from . import eulerian
    rendered = build(eulerian).to_basis(args.basis).render()
    if args.output == "json":
        out = {"command": "qfun", "params": params, "basis": args.basis,
               "value": rendered}
        _print_json(out)
    else:
        print(rendered)
    return 0


def cmd_chartable(args):
    if args.n < 1:
        raise UsageError("n must be positive")
    _check_degree(args.n)
    from .eulerian import char_table
    js, rows = char_table(args.n)
    if args.output == "json":
        out = {"command": "chartable", "n": args.n,
               "columns": [[args.n, j] for j in js],
               "rows": [{"lam": list(mu), "values": vals} for mu, vals in rows]}
        _print_json(out)
        return 0
    head = ["lambda"] + [f"({args.n},{j})" for j in js]
    body = [[",".join(map(str, mu))] + [str(v) for v in vals] for mu, vals in rows]
    widths = [max(len(line[i]) for line in [head] + body) for i in range(len(head))]
    print("\n".join("  ".join(cell.rjust(w) for cell, w in zip(line, widths))
                    for line in [head] + body))
    return 0


# ---------------------------------------------------------------------------
# expression expansion
# ---------------------------------------------------------------------------

# One token of an expression.  `re` compiles it, and caches it, on the first
# tokenize, so that no other command loads or compiles it.
_TOKEN = r"\s*(\d+|[A-Za-z_]+|[\[\](),+*-])"


def _tokenize(text):
    import re
    token = re.compile(_TOKEN)
    # each token takes the whitespace before it, so trailing whitespace is
    # dropped here
    text = text.rstrip()
    out, pos = [], 0
    while pos < len(text):
        m = token.match(text, pos)
        if not m:
            raise UsageError(f"bad character at {text[pos:pos + 8]!r}")
        out.append(m.group(1))
        pos = m.end()
    return out


class _ExprParser:
    """Recursive descent over Q[..], omega(..), basis atoms, + - * and parens."""

    def __init__(self, text):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self, expect=None):
        tok = self.peek()
        if tok is None or (expect is not None and tok != expect):
            raise UsageError(f"expected {expect or 'more input'}, found {tok!r}")
        self.pos += 1
        return tok

    def parse(self):
        value = self.expr()
        if self.peek() is not None:
            raise UsageError(f"trailing input at {self.peek()!r}")
        return value

    def expr(self):
        value = self.term()
        while self.peek() in ("+", "-"):
            if self.take() == "+":
                value = value + self.term()
            else:
                value = value - self.term()
        return value

    def term(self):
        value = self.factor()
        while self.peek() == "*":
            self.take()
            right = self.factor()
            _check_degree(value.degree() + right.degree())
            value = value * right
        return value

    def factor(self):
        from .symfunc import SymF
        tok = self.peek()
        if tok == "-":
            self.take()
            return self.factor() * (-1)
        if tok == "(":
            self.take()
            value = self.expr()
            self.take(")")
            return value
        if tok is None:
            raise UsageError("unexpected end of expression")
        if tok.isdigit():
            self.take()
            return SymF.one("h") * int(tok)
        return self.atom()

    def atom(self):
        from .symfunc import SymF
        name = self.take()
        if name == "omega":
            self.take("(")
            value = self.expr()
            self.take(")")
            return value.omega()
        if name == "Q":
            return self.q_atom()
        if name in ("h", "e", "s", "p", "m"):
            self.take("[")
            return SymF.single(name, self.partition("]"))
        raise UsageError(f"unknown name {name!r}")

    def q_atom(self):
        from .eulerian import q_symf, q_symf_type
        self.take("[")
        if self.peek() == "(":
            self.take()
            lam = self.partition(")")
            self.take(",")
            j = self.integer()
            self.take("]")
            return q_symf_type(lam, j)
        nums = self.int_list("]")
        if len(nums) not in (2, 3):
            raise UsageError("Q[..] takes n,j or n,j,k or (parts),j")
        _check_degree(nums[0])
        return q_symf(*nums)

    def integer(self):
        tok = self.take()
        if not tok.isdigit():
            raise UsageError(f"expected integer, found {tok!r}")
        return int(tok)

    def int_list(self, closer):
        """Integers up to closer, or up to the end of the input when closer
        is None, one comma between each two and none after the last."""
        out = []
        if self.peek() != closer:
            out.append(self.integer())
            while self.peek() == ",":
                self.take()
                out.append(self.integer())
        if closer is not None:
            self.take(closer)
        return out

    def partition(self, closer):
        from .permstats import Partition
        parts = self.int_list(closer)
        if not all(parts):
            raise UsageError(f"partition parts must be positive: {tuple(parts)}")
        _check_degree(sum(parts))
        return Partition(parts)


def cmd_expand(args):
    if args.vars < 0:
        raise UsageError("--vars must be nonnegative")
    value = _ExprParser(args.expr).parse()
    if args.vars:
        # every value is symmetric: in x_1..x_N, m_lam vanishes exactly when
        # l(lam) > N and the others stay independent, but a kept term of
        # degree past N does not determine the function it came from
        from .symfunc import SymF
        kept = {lam: c for lam, c in value.to_basis("m").terms.items()
                if lam.length <= args.vars}
        if any(lam.n > args.vars for lam in kept):
            raise UsageError(f"--vars {args.vars} cannot carry this expression: "
                             "degree exceeds N; truncation is not faithful")
        value = SymF("m", kept)
    rendered = value.to_basis(args.basis).render()
    if args.output == "json":
        out = {"command": "expand", "expr": args.expr, "basis": args.basis,
               "vars": args.vars or None, "value": rendered}
        _print_json(out)
    else:
        print(rendered)
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------

# One argument of a command: a flag ("--n") or a positional name ("perm"),
# the attribute it sets, and the rest of what argparse's add_argument takes.
Arg = namedtuple("Arg", "name dest type choices default nargs help",
                 defaults=(None,) * 5)

# A command's handler, by name, so a tracer or a test that rebinds cmd_* sees
# the call; its help line; and its arguments, positionals first.
Command = namedtuple("Command", "handler help args")

_BASES = ("h", "e", "s", "p", "m")

# The options every command takes, after its own.
_COMMON = (
    Arg("--output", "output", choices=("text", "json"), default="text"),
)

# The grammar: each command, in the order help lists them.
COMMANDS = {
    "stats": Command("cmd_stats", "permutation statistics", (
        Arg("perm", "perm", nargs="?", help="one line word, e.g. 32541"),
        Arg("--n", "n", type=int, help="tabulate all of S_n"),
        Arg("--table", "table", help="comma list of statistics to tabulate"),
    )),
    "qfun": Command("cmd_qfun", "render one Q function", (
        Arg("--n", "n", type=int),
        Arg("--j", "j", type=int),
        Arg("--k", "k", type=int),
        Arg("--lambda", "lam", help="cycle type, e.g. 4,2,1"),
        Arg("--basis", "basis", choices=_BASES, default="h"),
    )),
    "verify": Command("cmd_verify", "run verification suites", (
        Arg("suite", "suite", help="suite name or 'all'"),
        Arg("--n-max", "n_max", type=int, default=0),
        Arg("--mode", "mode", choices=("ci", "extended"), default="ci"),
    )),
    "chartable": Command("cmd_chartable", "character table of single-cycle slices", (
        Arg("n", "n", type=int),
    )),
    "expand": Command("cmd_expand", "evaluate an expression over Q and bases", (
        Arg("expr", "expr"),
        Arg("basis", "basis", nargs="?", default="m", choices=_BASES),
        Arg("--vars", "vars", type=int, default=0,
            help="restrict to x_1..x_N before rendering"),
    )),
}


def _parse(argv):
    """The namespace argparse returns for argv in the plain form: a command,
    its positionals, then --flag value pairs with exact flag names, each
    value converted by its type and checked against its choices.  None for
    every other argv: help, a usage error, or a valid form argparse alone
    reads (--flag=value, an abbreviation, --, a value starting with -, or a
    positional after an option)."""
    if not argv or argv[0] not in COMMANDS:
        return None
    command = COMMANDS[argv[0]]
    args = command.args + _COMMON
    values = {arg.dest: arg.default for arg in args}
    positionals = [arg for arg in args if not arg.name.startswith("-")]
    options = {arg.name: arg for arg in args if arg.name.startswith("-")}
    rest = argv[1:]
    given = next((i for i, tok in enumerate(rest) if tok.startswith("-")), len(rest))
    required = sum(arg.nargs is None for arg in positionals)
    if not required <= given <= len(positionals):
        return None
    pairs = list(zip(positionals, rest[:given]))
    flags = rest[given:]
    if len(flags) % 2:
        return None
    for flag, tok in zip(flags[::2], flags[1::2]):
        if flag not in options or tok.startswith("-"):
            return None
        pairs.append((options[flag], tok))
    for arg, tok in pairs:
        try:
            value = tok if arg.type is None else arg.type(tok)
        except ValueError:
            return None
        if arg.choices is not None and value not in arg.choices:
            return None
        values[arg.dest] = value
    return SimpleNamespace(cmd=argv[0], fn=globals()[command.handler], **values)


def _parser(only=None):
    """The argument parser with every command's parser, or with only the
    one named, built from COMMANDS.  With one, the command metavar lists
    every command, so its usage line reads as the full parser's; the full
    parser sets none, as a metavar would also stand for "cmd" in its error
    messages."""
    import argparse
    top = argparse.ArgumentParser(
        prog="eulerq",
        description="Exact fixed-excedance quasisymmetric functions: "
                    "statistics, expansions, and machine verification.")
    if only is None:
        sub = top.add_subparsers(dest="cmd", required=True)
    else:
        sub = top.add_subparsers(dest="cmd", required=True,
                                 metavar="{" + ",".join(COMMANDS) + "}")
    for name in COMMANDS if only is None else (only,):
        command = COMMANDS[name]
        p = sub.add_parser(name, help=command.help)
        for arg in command.args + _COMMON:
            # argparse takes the dest of a positional from its name only
            dest = {"dest": arg.dest} if arg.name.startswith("-") else {}
            p.add_argument(arg.name, type=arg.type, choices=arg.choices,
                           default=arg.default, nargs=arg.nargs, help=arg.help, **dest)
        p.set_defaults(fn=globals()[command.handler])
    return top


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = _parse(argv)
    if args is None:
        # help, a missing command and an unknown one need every command's parser
        only = argv[0] if argv and argv[0] in COMMANDS else None
        args = _parser(only).parse_args(argv)
    try:
        return args.fn(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _closed_pipe():
    """The reader closed the pipe early and wants no more output: point
    stdout at /dev/null, so that no later flush fails, and exit 0."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    return 0


def _write_error(exc):
    """The output cannot be written (a full disk, say): one error line and
    exit 120, the code the interpreter gives a failed final flush."""
    try:
        print(f"error: cannot write output: {exc.strerror}", file=sys.stderr, flush=True)
    except OSError:  # stderr cannot be written either
        pass
    return 120


def run():
    """The process entry point, of `python -m eulerq.cli` and of the eulerq
    console script: main, then flush stdout and stderr, then os._exit.  That
    skips the interpreter's teardown (its last collections and the clean-up
    of every module and cache), which eulerq does not need: no module
    registers an atexit hook or leaves a file it writes open.

    An OSError out of main or the flush is a failed write, as eulerq does no
    other I/O, and it takes one policy wherever it is met: a closed pipe
    exits 0 quietly, any other write error prints one line and exits 120."""
    try:
        try:
            code = main()
        except SystemExit as exc:  # argparse's help and usage errors
            code = exc.code
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the descriptor was closed at launch
                stream.flush()
    except BrokenPipeError:
        code = _closed_pipe()
    except OSError as exc:
        code = _write_error(exc)
    os._exit(code)


if __name__ == "__main__":
    run()
