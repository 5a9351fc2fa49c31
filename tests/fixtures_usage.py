"""What `eulerq` prints for each command's help and for usage errors:
the exit code, stdout and stderr of `eulerq ARGV` at COLUMNS=80, recorded
when argparse parsed every command line."""

USAGE_OUTPUTS = {
    'stats --help': (0, """\
usage: eulerq stats [-h] [--n N] [--table TABLE] [--output {text,json}]
                    [--cache-dir CACHE_DIR]
                    [perm]

positional arguments:
  perm                  one line word, e.g. 32541

options:
  -h, --help            show this help message and exit
  --n N                 tabulate all of S_n
  --table TABLE         comma list of statistics to tabulate
  --output {text,json}
  --cache-dir CACHE_DIR
                        cache directory (default: $EULERQ_CACHE_DIR or
                        ~/.cache/eulerq)
""",
        ""),
    'qfun --help': (0, """\
usage: eulerq qfun [-h] [--n N] [--j J] [--k K] [--lambda LAM]
                   [--basis {h,e,s,p,m}] [--output {text,json}]
                   [--cache-dir CACHE_DIR]

options:
  -h, --help            show this help message and exit
  --n N
  --j J
  --k K
  --lambda LAM          cycle type, e.g. 4,2,1
  --basis {h,e,s,p,m}
  --output {text,json}
  --cache-dir CACHE_DIR
                        cache directory (default: $EULERQ_CACHE_DIR or
                        ~/.cache/eulerq)
""",
        ""),
    'verify --help': (0, """\
usage: eulerq verify [-h] [--n-max N_MAX] [--mode {ci,extended}]
                     [--output {text,json}] [--cache-dir CACHE_DIR]
                     suite

positional arguments:
  suite                 suite name or 'all'

options:
  -h, --help            show this help message and exit
  --n-max N_MAX
  --mode {ci,extended}
  --output {text,json}
  --cache-dir CACHE_DIR
                        cache directory (default: $EULERQ_CACHE_DIR or
                        ~/.cache/eulerq)
""",
        ""),
    'chartable --help': (0, """\
usage: eulerq chartable [-h] [--output {text,json}] [--cache-dir CACHE_DIR] n

positional arguments:
  n

options:
  -h, --help            show this help message and exit
  --output {text,json}
  --cache-dir CACHE_DIR
                        cache directory (default: $EULERQ_CACHE_DIR or
                        ~/.cache/eulerq)
""",
        ""),
    'expand --help': (0, """\
usage: eulerq expand [-h] [--vars VARS] [--output {text,json}]
                     [--cache-dir CACHE_DIR]
                     expr [{h,e,s,p,m}]

positional arguments:
  expr
  {h,e,s,p,m}

options:
  -h, --help            show this help message and exit
  --vars VARS           restrict to x_1..x_N before rendering
  --output {text,json}
  --cache-dir CACHE_DIR
                        cache directory (default: $EULERQ_CACHE_DIR or
                        ~/.cache/eulerq)
""",
        ""),
    'cache --help': (0, """\
usage: eulerq cache [-h] [--mode {ci,extended}] [--output {text,json}]
                    [--cache-dir CACHE_DIR]
                    {warm,clear,list}

positional arguments:
  {warm,clear,list}

options:
  -h, --help            show this help message and exit
  --mode {ci,extended}
  --output {text,json}
  --cache-dir CACHE_DIR
                        cache directory (default: $EULERQ_CACHE_DIR or
                        ~/.cache/eulerq)
""",
        ""),
    'stats --bogus': (2, "",
        """\
usage: eulerq [-h] {stats,qfun,verify,chartable,expand,cache} ...
eulerq: error: unrecognized arguments: --bogus
"""),
    'stats --n x': (2, "",
        """\
usage: eulerq stats [-h] [--n N] [--table TABLE] [--output {text,json}]
                    [--cache-dir CACHE_DIR]
                    [perm]
eulerq stats: error: argument --n: invalid int value: 'x'
"""),
    'stats 1 2': (2, "",
        """\
usage: eulerq [-h] {stats,qfun,verify,chartable,expand,cache} ...
eulerq: error: unrecognized arguments: 2
"""),
    'stats --n 8 123': (2, "",
        """\
error: give exactly one of a permutation word or --n
"""),
    'stats --output': (2, "",
        """\
usage: eulerq stats [-h] [--n N] [--table TABLE] [--output {text,json}]
                    [--cache-dir CACHE_DIR]
                    [perm]
eulerq stats: error: argument --output: expected one argument
"""),
    'qfun --n': (2, "",
        """\
usage: eulerq qfun [-h] [--n N] [--j J] [--k K] [--lambda LAM]
                   [--basis {h,e,s,p,m}] [--output {text,json}]
                   [--cache-dir CACHE_DIR]
eulerq qfun: error: argument --n: expected one argument
"""),
    'qfun --j 1.5': (2, "",
        """\
usage: eulerq qfun [-h] [--n N] [--j J] [--k K] [--lambda LAM]
                   [--basis {h,e,s,p,m}] [--output {text,json}]
                   [--cache-dir CACHE_DIR]
eulerq qfun: error: argument --j: invalid int value: '1.5'
"""),
    'qfun --nn 4 --j 1': (2, "",
        """\
usage: eulerq [-h] {stats,qfun,verify,chartable,expand,cache} ...
eulerq: error: unrecognized arguments: --nn 4
"""),
    'qfun --n 4 --j 1 --basis q': (2, "",
        """\
usage: eulerq qfun [-h] [--n N] [--j J] [--k K] [--lambda LAM]
                   [--basis {h,e,s,p,m}] [--output {text,json}]
                   [--cache-dir CACHE_DIR]
eulerq qfun: error: argument --basis: invalid choice: 'q' (choose from 'h', 'e', 's', 'p', 'm')
"""),
    'qfun --n 4 --j 1 --output xml': (2, "",
        """\
usage: eulerq qfun [-h] [--n N] [--j J] [--k K] [--lambda LAM]
                   [--basis {h,e,s,p,m}] [--output {text,json}]
                   [--cache-dir CACHE_DIR]
eulerq qfun: error: argument --output: invalid choice: 'xml' (choose from 'text', 'json')
"""),
    'qfun extra': (2, "",
        """\
usage: eulerq [-h] {stats,qfun,verify,chartable,expand,cache} ...
eulerq: error: unrecognized arguments: extra
"""),
    'verify': (2, "",
        """\
usage: eulerq verify [-h] [--n-max N_MAX] [--mode {ci,extended}]
                     [--output {text,json}] [--cache-dir CACHE_DIR]
                     suite
eulerq verify: error: the following arguments are required: suite
"""),
    'verify all extra': (2, "",
        """\
usage: eulerq [-h] {stats,qfun,verify,chartable,expand,cache} ...
eulerq: error: unrecognized arguments: extra
"""),
    'verify all --mode fast': (2, "",
        """\
usage: eulerq verify [-h] [--n-max N_MAX] [--mode {ci,extended}]
                     [--output {text,json}] [--cache-dir CACHE_DIR]
                     suite
eulerq verify: error: argument --mode: invalid choice: 'fast' (choose from 'ci', 'extended')
"""),
    'verify all --n-max two': (2, "",
        """\
usage: eulerq verify [-h] [--n-max N_MAX] [--mode {ci,extended}]
                     [--output {text,json}] [--cache-dir CACHE_DIR]
                     suite
eulerq verify: error: argument --n-max: invalid int value: 'two'
"""),
    'chartable': (2, "",
        """\
usage: eulerq chartable [-h] [--output {text,json}] [--cache-dir CACHE_DIR] n
eulerq chartable: error: the following arguments are required: n
"""),
    'chartable eight': (2, "",
        """\
usage: eulerq chartable [-h] [--output {text,json}] [--cache-dir CACHE_DIR] n
eulerq chartable: error: argument n: invalid int value: 'eight'
"""),
    'chartable 8 9': (2, "",
        """\
usage: eulerq [-h] {stats,qfun,verify,chartable,expand,cache} ...
eulerq: error: unrecognized arguments: 9
"""),
    'expand': (2, "",
        """\
usage: eulerq expand [-h] [--vars VARS] [--output {text,json}]
                     [--cache-dir CACHE_DIR]
                     expr [{h,e,s,p,m}]
eulerq expand: error: the following arguments are required: expr
"""),
    'expand m[2] q': (2, "",
        """\
usage: eulerq expand [-h] [--vars VARS] [--output {text,json}]
                     [--cache-dir CACHE_DIR]
                     expr [{h,e,s,p,m}]
eulerq expand: error: argument basis: invalid choice: 'q' (choose from 'h', 'e', 's', 'p', 'm')
"""),
    'expand m[2] h extra': (2, "",
        """\
usage: eulerq [-h] {stats,qfun,verify,chartable,expand,cache} ...
eulerq: error: unrecognized arguments: extra
"""),
    'expand m[2] --vars x': (2, "",
        """\
usage: eulerq expand [-h] [--vars VARS] [--output {text,json}]
                     [--cache-dir CACHE_DIR]
                     expr [{h,e,s,p,m}]
eulerq expand: error: argument --vars: invalid int value: 'x'
"""),
    'cache': (2, "",
        """\
usage: eulerq cache [-h] [--mode {ci,extended}] [--output {text,json}]
                    [--cache-dir CACHE_DIR]
                    {warm,clear,list}
eulerq cache: error: the following arguments are required: action
"""),
    'cache purge': (2, "",
        """\
usage: eulerq cache [-h] [--mode {ci,extended}] [--output {text,json}]
                    [--cache-dir CACHE_DIR]
                    {warm,clear,list}
eulerq cache: error: argument action: invalid choice: 'purge' (choose from 'warm', 'clear', 'list')
"""),
    'cache warm --mode fast': (2, "",
        """\
usage: eulerq cache [-h] [--mode {ci,extended}] [--output {text,json}]
                    [--cache-dir CACHE_DIR]
                    {warm,clear,list}
eulerq cache: error: argument --mode: invalid choice: 'fast' (choose from 'ci', 'extended')
"""),
}
