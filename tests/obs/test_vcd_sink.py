"""Unit tests for the event-driven VCD sink (:func:`repro.obs.build_vcd`)."""

from repro.obs import TraceEvent, build_vcd

NS = 1_000_000  # femtoseconds


def _psm(t_ns, source, state, initial=False):
    if initial:
        return TraceEvent(t_ns * NS, "psm.state", source, {"state": state})
    return TraceEvent(t_ns * NS, "psm.transition", source,
                      {"from_state": "?", "to_state": state,
                       "latency_us": 0.0, "energy_j": 0.0})


def _bus(t_fs, kind, **fields):
    fields.setdefault("master", "m")
    return TraceEvent(t_fs, kind, "soc.bus", fields)


def _body(vcd):
    return vcd.partition("$enddefinitions $end\n")[2]


def test_header_names_lines_after_their_signals():
    vcd = build_vcd([_psm(0, "ip1", "ON1", initial=True)],
                    {"ip1": "top.ip1_psm.state", "soc.bus": "top.bus.busy"}, 10 * NS)
    assert vcd.startswith("$comment repro trace $end\n$timescale 1ns $end\n")
    assert "$var wire 64 ! top.ip1_psm.state $end\n" in vcd
    assert '$var wire 64 " top.bus.busy $end\n' in vcd


def test_identifiers_stay_in_the_printable_alphabet():
    lines = {f"ip{index}": f"top.ip{index}.state" for index in range(100)}
    vcd = build_vcd([], lines, 0)
    identifiers = [line.split()[3] for line in vcd.splitlines()
                   if line.startswith("$var ")]
    assert len(set(identifiers)) == 100
    assert identifiers[0] == "!" and identifiers[93] == "~"
    assert len(identifiers[94]) == 2
    for identifier in identifiers:
        assert all(33 <= ord(char) <= 126 for char in identifier)


def test_bool_bus_line_toggles():
    events = [_bus(5 * NS, "bus.grant", words=1, wait_us=0.0),
              _bus(10 * NS, "bus.release", words=1),
              _bus(15 * NS, "bus.grant", words=1, wait_us=0.0),
              _bus(20 * NS, "bus.cancel", granted=True),
              _bus(22 * NS, "bus.cancel", granted=False)]
    vcd = build_vcd(events, {"soc.bus": "top.bus.busy"}, 24 * NS)
    assert _body(vcd) == ("#0\ns0 !\n#5\ns1 !\n#10\ns0 !\n#15\ns1 !\n"
                          "#20\ns0 !\n#24\n")


def test_state_values_render_without_spaces():
    events = [_psm(0, "ip1", "ON 1", initial=True), _psm(5, "ip1", "SL1")]
    vcd = build_vcd(events, {"ip1": "top.state"}, 10 * NS)
    assert _body(vcd) == "#0\nsON_1 !\n#5\nsSL1 !\n#10\n"


def test_times_round_to_the_nearest_nanosecond():
    events = [_psm(0, "ip1", "ON1", initial=True),
              TraceEvent(1_400_000, "psm.transition", "ip1",
                         {"from_state": "ON1", "to_state": "ON2",
                          "latency_us": 0.0, "energy_j": 0.0}),
              TraceEvent(2_600_000, "psm.transition", "ip1",
                         {"from_state": "ON2", "to_state": "ON3",
                          "latency_us": 0.0, "energy_j": 0.0})]
    vcd = build_vcd(events, {"ip1": "top.state"}, 3 * NS)
    assert _body(vcd) == "#0\nsON1 !\n#1\nsON2 !\n#3\nsON3 !\n"


def test_end_stamp_written_once():
    events = [_psm(0, "ip1", "ON1", initial=True), _psm(7, "ip1", "SL1")]
    assert _body(build_vcd(events, {"ip1": "s"}, 7 * NS)).endswith("#7\nsSL1 !\n")
    assert _body(build_vcd(events, {"ip1": "s"}, 9 * NS)).endswith("sSL1 !\n#9\n")


def test_same_instant_release_and_regrant_leave_no_glitch():
    events = [_bus(5 * NS, "bus.grant", words=1, wait_us=0.0),
              _bus(8 * NS, "bus.release", words=1),
              _bus(8 * NS, "bus.grant", master="n", words=1, wait_us=0.0)]
    vcd = build_vcd(events, {"soc.bus": "top.bus.busy"}, 9 * NS)
    assert _body(vcd) == "#0\ns0 !\n#5\ns1 !\n#9\n"


def test_lines_within_one_stamp_keep_declaration_order():
    events = [_psm(0, "b", "ON1", initial=True), _psm(0, "a", "ON1", initial=True),
              _psm(4, "b", "SL1"), _psm(4, "a", "SL2")]
    vcd = build_vcd(events, {"a": "top.a", "b": "top.b"}, 4 * NS)
    assert _body(vcd) == '#0\nsON1 !\nsON1 "\n#4\nsSL2 !\nsSL1 "\n'


def test_untraced_sources_are_ignored():
    events = [_psm(0, "ip1", "ON1", initial=True), _psm(3, "other", "SL1")]
    vcd = build_vcd(events, {"ip1": "top.state"}, 10 * NS)
    assert _body(vcd) == "#0\nsON1 !\n#10\n"
