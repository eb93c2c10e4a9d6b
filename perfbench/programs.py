"""ESP program generators for the benchmark's inputs.

Every generator takes a ``var`` prefix for its local variables, so the
``serve`` workload can submit alpha-renamed copies of a program.
"""

from __future__ import annotations


def relay_pipeline(stages: int, messages: int, var: str = "x") -> str:
    """``source -> relay0 -> ... -> sink``: the state count grows with
    stages x messages while each transition touches two processes."""
    lines = [f"channel c{i}: int" for i in range(stages + 1)]
    lines.append("process source {")
    lines += [f"    out( c0, {m});" for m in range(messages)]
    lines.append("}")
    for i in range(stages):
        lines += [f"process relay{i} {{", "    while (true) {",
                  f"        in( c{i}, ${var});",
                  f"        out( c{i + 1}, {var});", "    }", "}"]
    lines += ["process sink {", f"    ${var}n = 0;",
              f"    while ({var}n < {messages}) {{",
              f"        in( c{stages}, ${var}v);",
              f"        {var}n = {var}n + 1;", "    }", "}"]
    return "\n".join(lines) + "\n"


def compute_pipeline(stages: int, messages: int, work: int,
                     var: str = "x") -> str:
    """A relay pipeline whose every hop runs ``work`` iterations of
    arithmetic before forwarding: long deterministic stretches between
    blocking points."""
    a, j = f"{var}a", f"{var}j"
    lines = [f"channel c{i}: int" for i in range(stages + 1)]
    lines.append("process source {")
    lines += [f"    out( c0, {m});" for m in range(messages)]
    lines.append("}")
    for i in range(stages):
        lines += [f"process relay{i} {{", "    while (true) {",
                  f"        in( c{i}, ${var});",
                  f"        ${a} = {var}; ${j} = 0;",
                  f"        while ({j} < {work}) "
                  f"{{ {a} = ({a} * 7 + {j}) % 97; {j} = {j} + 1; }}",
                  f"        out( c{i + 1}, {a});", "    }", "}"]
    lines += ["process sink {", f"    ${var}n = 0;",
              f"    while ({var}n < {messages}) {{ in( c{stages}, ${var}v); "
              f"{var}n = {var}n + 1; }}", "}"]
    return "\n".join(lines) + "\n"


def chain(messages: int, assert_bound: int | None = None, base: int = 0,
          var: str = "x") -> str:
    """A producer sending ``base + i % 3`` to a consumer; with
    ``assert_bound`` the consumer asserts every value is at most it."""
    lines = ["channel c: int", "process producer {"]
    lines += [f"    out( c, {base + i % 3});" for i in range(messages)]
    lines += ["}", "process consumer {", f"    ${var}n = 0;",
              f"    while ({var}n < {messages}) {{",
              f"        in( c, ${var});"]
    if assert_bound is not None:
        lines.append(f"        assert( {var} <= {assert_bound});")
    lines += [f"        {var}n = {var}n + 1;", "    }", "}"]
    return "\n".join(lines) + "\n"


def chain_violates(messages: int, assert_bound: int | None,
                   base: int = 0) -> bool:
    """Whether :func:`chain` fails its assertion: worked out from the
    values it sends, not by running it."""
    if assert_bound is None:
        return False
    return any(base + i % 3 > assert_bound for i in range(messages))


# -- Fig. 5-shaped programs for the native engine ------------------------------

# Per-message work standing in for the firmware's checksum over a
# packet's payload words.
_CHECKSUM = ("$sum = 0; $w = 0; "
             "while (w < {words}) {{ "
             "sum = (sum + (({seed} + w) * 31 & 65535)) % 65521; "
             "w = w + 1; }}")


def pingpong(rounds: int, words: int) -> str:
    """Fig. 5(a) shape: request/reply round trips, checksum per leg;
    the client prints the running total at the end."""
    client_sum = _CHECKSUM.format(words=words, seed="(n + w)")
    server_sum = _CHECKSUM.format(words=words, seed="(payload + w)")
    return f"""
channel reqC: int
channel repC: int

process client {{
    $n = 0;
    $total = 0;
    while (n < {rounds}) {{
        {client_sum}
        out( reqC, sum);
        in( repC, $ack);
        total = (total + ack) % 1000003;
        n = n + 1;
    }}
    print( total);
}}

process server {{
    $n = 0;
    while (n < {rounds}) {{
        in( reqC, $payload);
        {server_sum}
        out( repC, sum);
        n = n + 1;
    }}
}}
"""


def stream(messages: int, window: int, words: int) -> str:
    """Fig. 5(b) shape: a one-way stream under a credit window."""
    send_sum = _CHECKSUM.format(words=words, seed="(sent + w)")
    recv_sum = _CHECKSUM.format(words=words, seed="(d + w)")
    return f"""
channel dataC: int
channel ackC: int

process sender {{
    $credits = {window};
    $sent = 0;
    $acked = 0;
    $chk = 0;
    $total = 0;
    while (acked < {messages}) {{
        alt {{
            case( sent < {messages} && credits > 0, out( dataC, chk)) {{
                credits = credits - 1;
                sent = sent + 1;
                {send_sum}
                chk = sum;
            }}
            case( in( ackC, $c)) {{
                credits = credits + 1;
                acked = acked + 1;
                total = (total + c) % 1000003;
            }}
        }}
    }}
    print( total);
}}

process receiver {{
    $n = 0;
    while (n < {messages}) {{
        in( dataC, $d);
        {recv_sum}
        out( ackC, sum);
        n = n + 1;
    }}
}}
"""


def bidirectional(messages: int, words: int) -> str:
    """Fig. 5(c) shape: both sides stream at once through a two-armed
    alt; each prints what it received."""
    def side(me: int, mine: str, theirs: str) -> str:
        send_sum = _CHECKSUM.format(words=words, seed="(sent + w)")
        return f"""
process side{me} {{
    $sent = 0;
    $got = 0;
    $total = 0;
    while (sent < {messages} || got < {messages}) {{
        alt {{
            case( sent < {messages}, out( {mine}, sent)) {{
                {send_sum}
                sent = sent + 1 + sum * 0;
            }}
            case( got < {messages}, in( {theirs}, $d)) {{
                got = got + 1;
                total = (total * 3 + d) % 1000003;
            }}
        }}
    }}
    print( total);
}}
"""
    return ("channel abC: int\nchannel baC: int\n"
            + side(0, "abC", "baC") + side(1, "baC", "abC"))
