"""Scenario configuration: qubit-side requirements, process parameters, operating point.

A :class:`Scenario` bundles everything the estimator and the behavioral
simulator need: the signal requirements (``SystemSpec``), the CMOS process
constants (``TechnologyParams``), the chosen operating point
(``OperatingPoint``), and the architecture selections (memory type, DAC
types, unit-component sizes).

Scenario files are JSON with the same field names as the records below.
All physical quantities are SI units (volts, farads, ohms, hertz, kelvin);
areas are in square micrometres. Unknown keys are a hard error so that a
typo cannot silently fall back to a default.

Each part checks and converts its own fields when it is built, by its
constructor, :func:`replace` or :func:`load_scenario`, so a part or scenario
that exists is valid; the loader only parses, rejects unknown keys and
prefixes a part's message with its section. A scenario derives its clocks
once, when it is built, as ``Scenario.clocks``.
"""

from __future__ import annotations

import json
import math
import sys
from enum import Enum
from operator import attrgetter
from pathlib import Path


class ConfigError(ValueError):
    """A scenario file failed to parse or violated an invariant."""


def _check_number(name: str, value, default=0.0) -> None:
    """Raise ConfigError unless ``value`` is a number, not a bool, or None if ``default`` is."""
    if value is None and default is None:
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number" + (" or null" if default is None else ""))


class _Record:
    """A frozen record of keyword fields, read as a named tuple is read.

    A subclass maps each field, in order, to its default in
    ``_field_defaults``, its one schema, and takes its ``__slots__`` from it.
    A field's kind is the type of its default: a part, an enum member (or its
    value), an integer, or a positive finite number (an int, float or None
    default; None only where it is the default). One routine, ``_build``,
    builds a record over the defaults, or over a record's values in
    :func:`replace`: it copies every field from that base, sets the fields
    given by keyword over it, checks and converts the given ones by kind with
    ``_check_kinds`` (parts, enums, integers, numbers, each in field order;
    not ``_own_checks``; the defaults are valid), then runs the subclass's
    ``_check`` for the rules no default states; the ConfigError names the
    first bad field. Records compare and hash by type and field values;
    ``_fields`` names the fields and ``_asdict`` gives them."""

    __slots__ = ()
    _field_defaults: dict = {}
    _own_checks = ()

    def __init_subclass__(cls):
        defaults = cls._field_defaults
        cls._fields = tuple(defaults)
        cls._values = attrgetter(*cls._fields)
        # each slot's own setter, which a frozen record's __setattr__ refuses
        cls._setters = tuple(getattr(cls, name).__set__ for name in defaults)
        cls._setter_of = dict(zip(defaults, cls._setters))
        kinds = [(name, type(default)) for name, default in defaults.items()
                 if name not in cls._own_checks]
        cls._parts = tuple((n, k) for n, k in kinds if issubclass(k, _Record))
        cls._enums = tuple((n, k) for n, k in kinds if issubclass(k, Enum))
        cls._integers = tuple(n for n, k in kinds if k is int)
        cls._numbers = tuple((n, defaults[n]) for n, k in kinds if k in (int, float, type(None)))

    def __init__(self, **values):
        self._build(self._field_defaults.values(), values)

    def _build(self, base, values) -> None:
        """Set each field to its value in ``base`` (all fields, in order), then
        to its keyword in ``values``; check the given ones, then ``_check``."""
        for set_field, value in zip(self._setters, base):
            set_field(self, value)
        setter_of = self._setter_of
        for name, value in values.items():
            if name not in setter_of:
                raise TypeError(f"{type(self).__qualname__}.__init__() got an unexpected "
                                f"keyword argument '{name}'")
            setter_of[name](self, value)
        if values:
            self._check_kinds(values)
        self._check()

    def _check_kinds(self, names) -> None:
        """Check and convert the fields in ``names`` by kind: parts, enums,
        integers, numbers, each in field order."""
        for name, part in self._parts:
            if name in names and not isinstance(getattr(self, name), part):
                raise ConfigError(f"{name} must be a {part.__name__}")
        for name, enum in self._enums:
            if name in names and type(getattr(self, name)) is not enum:
                object.__setattr__(self, name, _choice(name, enum, getattr(self, name)))
        for name in self._integers:
            if name in names and type(getattr(self, name)) is not int:
                raise ConfigError(f"{name} must be an integer")
        top = sys.float_info.max
        for name, default in self._numbers:
            if name not in names:
                continue
            v = getattr(self, name)
            if type(v) is not float and type(v) is not int:   # a float or int needs the range only
                _check_number(name, v, default)
                if v is None:
                    continue
            if not 0 < v <= top:   # an integer beyond the largest float is not finite
                raise ConfigError(f"{name} must be {'positive' if v <= 0 else 'finite'}")

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._values(self)))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field '{name}'")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field '{name}'")

    # copy and pickle build the record again, checked
    __getstate__ = _asdict

    def __setstate__(self, state):
        self.__init__(**state)


def replace(record, /, **changes):
    """A copy of ``record``, a scenario, one of its parts or a named-tuple
    record, with the fields in ``changes`` replaced; it equals what its
    constructor builds from the changed fields, and refuses what that refuses
    with the same error. A named tuple is built again by its constructor. A
    part or scenario is built by the constructor's own routine over the
    record's values instead of the defaults: it checks only the changed
    fields by kind (the others were checked when ``record`` was built), then
    runs its own ``_check`` in full; a scenario derives its ``clocks`` again."""
    if not isinstance(record, _Record):
        return type(record)(**{**record._asdict(), **changes})
    new = object.__new__(type(record))
    new._build(record._values(record), changes)
    return new


@classmethod
def make(cls, iterable):
    """The ``_make`` of a checked named tuple: the record its constructor
    builds from the fields in ``iterable``, checked and converted alike."""
    return cls(*iterable)


class MemoryArch(str, Enum):
    FLIP_FLOP = "ff"
    SRAM = "sram"


class DacArchitecture(str, Enum):
    KELVIN = "kelvin"
    LADDER = "ladder"
    CAP = "cap"


class Node(str, Enum):
    NODE_65NM = "65nm"
    NODE_14NM = "14nm"


def _choice(name: str, enum, value):
    """``value``, an ``enum`` member or its string value, as the member."""
    try:
        return enum(value)
    except ValueError:
        choices = ", ".join(e.value for e in enum)
        raise ConfigError(f"{name} must be one of: {choices}") from None


# The DAC resolutions [bits] the unit models size, for both the bias and the
# pulse DAC.
RESOLUTION_RANGE = (2, 24)

# Unit resistor of an R-2R ladder when no explicit value is given. Smaller
# values drive static power up; this is the comparison value used throughout
# the reference design point.
DEFAULT_LADDER_UNIT_RES = 150.0


class SystemSpec(_Record):
    """Qubit-side signal requirements.

    n_bias_signals : number of DC electrodes served by the bias path
    v_range_bias   : full-scale bias output range [V]
    dv_bias        : allowed RMS fluctuation on a bias electrode [V]
    n_bias         : bias DAC resolution [bits]
    n_rf_signals   : number of fast pulse electrodes
    v_range_rf     : full-scale pulse amplitude [V]
    n_rf           : pulse DAC resolution [bits]
    dv_rf          : allowed RMS fluctuation on a pulse electrode [V]
    f_sample_rf    : pulse sample rate [Hz]
    l_pulse        : samples per stored pulse sequence
    n_pulses       : number of stored pulse sequences
    """

    _field_defaults = {
        "n_bias_signals": 8,
        "v_range_bias": 1.0,
        "dv_bias": 3e-6,
        "n_bias": 12,
        "n_rf_signals": 2,
        "v_range_rf": 4e-3,
        "n_rf": 10,
        "dv_rf": 8e-6,
        "f_sample_rf": 300e6,
        "l_pulse": 16,
        "n_pulses": 16,
    }
    __slots__ = tuple(_field_defaults)

    def _check(self):
        lo, hi = RESOLUTION_RANGE
        for name in ("n_bias", "n_rf"):
            if not lo <= getattr(self, name) <= hi:
                raise ConfigError(f"{name} must be in [{lo}, {hi}]")
        for name in ("l_pulse", "n_pulses"):
            v = getattr(self, name)
            if v & (v - 1) != 0:
                raise ConfigError(f"{name} must be a power of two")


class TechnologyParams(_Record):
    """Process constants of the CMOS technology, 65 nm baseline.

    The first group are effective densities and typical device figures; the
    second group are process limits. The calibration capacitances
    ``c_ff_equiv`` (equivalent switching capacitance of one flip-flop incl.
    local clocking/logic) and ``c_sram_bit`` are fitted
    against the reference memory power figures. The ``*_scale`` factors are
    1.0 at the 65 nm baseline and set by :func:`apply_node` for other nodes.
    """

    _field_defaults = {
        "rho_r": 21.4,            # ohm per um^2, effective resistive density
        "rho_c": 1.75e-15,        # F per um^2, effective capacitive density
        "a_mos": 0.375,           # um^2, mean transistor area
        "c_mos": 150e-18,         # F, mean transistor gate capacitance
        "r_off": 1e12,            # ohm, switch off-resistance
        "r_min": 15.0,            # ohm, minimum poly resistor
        "c_min": 10e-15,          # F, minimum MIM capacitor
        "c_ff_equiv": 3.25e-15,   # F per flip-flop, calibration
        "a_ff": 10.0,             # um^2 per flip-flop
        "c_sram_bit": 1.25e-15,   # F per SRAM bit, calibration
        "a_sram_cell": 0.5,       # um^2 per SRAM cell
        "logic_area_scale": 1.0,
        "sram_area_scale": 1.0,
        "cap_density_scale": 1.0,
        "digital_cap_scale": 1.0,
        "r_off_multiplier": 1.0,
    }
    __slots__ = tuple(_field_defaults)

    def r_off_effective(self) -> float:
        return self.r_off * self.r_off_multiplier

    def _check(self):
        # each product can underflow or overflow although its factors do not
        for product, value, unit in (
                ("r_off * r_off_multiplier", self.r_off_effective(), "ohm"),
                ("rho_c * cap_density_scale", self.rho_c * self.cap_density_scale, "F/um^2")):
            if not 0 < value < math.inf:
                raise ConfigError(f"{product} = {value:.3g} {unit} must be positive and finite")


class OperatingPoint(_Record):
    """Operating temperature, supply, clocks, bandwidths, and activities.

    The clocks are normally left as ``None`` and derived: logic is edge
    triggered and runs at twice the conversion rate of its analog
    counterpart, so ``f_clk_bias`` becomes twice the refresh rate and
    ``f_clk_rf`` twice the pulse sample rate (600 MHz at the defaults).
    """

    _field_defaults = {
        "t_el": 0.2,              # K, electronics temperature
        "v_dd": 1.0,              # V, operating digital supply
        "f_clk_bias": None,       # Hz, None = derived
        "f_clk_rf": None,
        "b_bias": 10e6,           # Hz, bias-path effective bandwidth
        "b_rf": 600e6,            # Hz, pulse-path effective bandwidth
        "sigma_biasmem": 0.306,
        "sigma_rfmem": 0.026,
        "sigma_con": 0.5,
    }
    __slots__ = tuple(_field_defaults)
    # activities, numbers in (0, 0.5] with their own message
    _own_checks = ("sigma_biasmem", "sigma_rfmem", "sigma_con")

    def _check(self):
        for name in self._own_checks:
            s = getattr(self, name)
            if type(s) is not float:   # a float needs the range only
                _check_number(name, s)
            if not 0 < s <= 0.5:
                raise ConfigError(f"{name} must be in (0, 0.5]")


class Scenario(_Record):
    """A complete technology + architecture + operating-point choice.

    ``clocks`` holds the refresh rate and both digital clocks
    (``analog.Clocks``), derived once, when the scenario is built.
    """

    _field_defaults = {
        "spec": SystemSpec(),
        "tech": TechnologyParams(),
        "op": OperatingPoint(),
        "memory_arch": MemoryArch.FLIP_FLOP,
        "bias_dac_arch": DacArchitecture.CAP,
        "rf_dac_arch": DacArchitecture.CAP,
        "c_h": 307e-15,           # F, per-electrode hold capacitor
        "bias_dac_unit": None,    # None = architecture default
        "rf_dac_unit": None,
    }
    __slots__ = (*_field_defaults, "clocks")

    def _check(self):
        object.__setattr__(self, "clocks", None)   # derived by validate
        self.validate()

    def validate(self) -> None:
        """The rules across parts, run when the scenario is built: the hold
        capacitor against its thermal-noise floor, positive and finite derived
        clocks, and no explicit clock below the conversions it drives. The
        first run, as the scenario is built, derives its ``clocks``. The
        ``analog`` and ``noise`` models are bound once, when this module is
        loaded, and called as its attributes."""
        spec, op = self.spec, self.op
        try:
            hold_min = noise.min_hold_cap(spec.n_bias_signals, spec.dv_bias, op.t_el).value
        except ValueError as exc:   # the bound underflows or overflows
            raise ConfigError(f"spec.dv_bias, spec.n_bias_signals and op.t_el give no "
                              f"hold-capacitor minimum: {exc}") from None
        if self.c_h < hold_min:
            raise ConfigError(
                f"c_h={self.c_h:.3e} F is below the thermal-noise minimum "
                f"{hold_min:.3e} F at t_el={op.t_el} K"
            )
        # the clocks divide by the hold capacitance, so they come after its check
        clocks = self.clocks
        if clocks is None:
            clocks = analog.derived_clocks(self)
            object.__setattr__(self, "clocks", clocks)
        for name, value in zip(clocks._fields, clocks):
            if not 0 < value < math.inf:
                raise ConfigError(f"the derived {name} must be positive and finite; check "
                                  f"the tech and spec values it is derived from")
        if op.f_clk_bias is None and op.f_clk_rf is None:
            return
        # an explicit clock may not be slower than the conversions it drives
        for name, floor, what in (
                ("f_clk_bias", 2.0 * clocks.f_refresh, "the derived refresh rate"),
                ("f_clk_rf", 2.0 * spec.f_sample_rf, "spec.f_sample_rf")):
            value = getattr(op, name)
            if value is not None and value < floor:
                raise ConfigError(f"op.{name}={value:.6g} Hz is below {floor:.6g} Hz, "
                                  f"twice {what}")


def apply_node(tech: TechnologyParams, node: Node | str) -> TechnologyParams:
    """Return ``tech`` rescaled to the given technology node.

    The input must be an unscaled 65 nm baseline. ``Node.NODE_65NM`` is the
    identity. ``Node.NODE_14NM`` shrinks logic by 24x and SRAM cells by 7x,
    raises the capacitive density by 200x (trench capacitors), and scales the
    digital switching capacitance by 0.75 (calibrated against the reference
    14 nm power figures). Individual factors can be overridden afterwards
    with :func:`replace`.
    """
    node = _choice("node", Node, node)
    if node is Node.NODE_65NM:
        return tech
    for name in ("logic_area_scale", "sram_area_scale", "cap_density_scale",
                 "digital_cap_scale"):
        if getattr(tech, name) != 1.0:
            raise ConfigError(f"apply_node expects a 65 nm baseline; {name} != 1")
    return replace(
        tech,
        logic_area_scale=1.0 / 24.0,
        sram_area_scale=1.0 / 7.0,
        cap_density_scale=200.0,
        digital_cap_scale=0.75,
    )


# ---------------------------------------------------------------------------
# JSON loading / saving

def escape_controls(text) -> str:
    """``str(text)`` with each character that is not printable (a newline, a
    tab, a line separator) escaped as ``repr`` escapes it, for a one-line
    message; a printable text keeps its characters."""
    text = str(text)
    if text.isprintable():
        return text
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in text)


def _excerpt(value) -> str:
    """``escape_controls(value)``, cut in the middle if over 80 characters."""
    text = escape_controls(value)
    return text if len(text) <= 80 else f"{text[:40]}...{text[-40:]}"


def _check_keys(cls, data: dict, section: str = "") -> None:
    for key in data:
        if key not in cls._field_defaults:
            raise ConfigError(f"unknown key '{_excerpt(section + key)}' in scenario file")


def _part(section: str, base, data):
    """``base`` with the fields of this JSON section replaced; a part's
    message is prefixed with the section it names."""
    if not isinstance(data, dict):
        raise ConfigError(f"'{section}' must be a JSON object")
    _check_keys(type(base), data, f"{section}.")
    try:
        return replace(base, **data)
    except ConfigError as exc:
        raise ConfigError(f"{section}.{exc}") from None


def scenario_from_dict(data: dict) -> Scenario:
    """Build a Scenario from a dict, filling defaults; every part checks and
    converts its fields as it is built, and the scenario is built once, over
    the default parts, so it derives its clocks once.

    Recognized top-level keys: ``defaults`` (optional, must be ``"paper"``),
    ``node`` (optional shorthand that applies :func:`apply_node` before any
    explicit ``tech`` overrides), and the Scenario field names.
    """
    if not isinstance(data, dict):
        raise ConfigError("scenario file must contain a JSON object")
    data = dict(data)

    defaults = data.pop("defaults", "paper")
    if defaults != "paper":
        raise ConfigError(f"unsupported defaults '{_excerpt(defaults)}' (only \"paper\")")

    base = Scenario._field_defaults
    node = data.pop("node", None)
    tech = apply_node(base["tech"], node) if node is not None else base["tech"]
    _check_keys(Scenario, data)
    parts = {section: _part(section, part, data.pop(section, {}))
             for section, part in (("spec", base["spec"]), ("tech", tech), ("op", base["op"]))}
    return Scenario(**parts, **data)


def load_scenario(path: str | Path) -> Scenario:
    """Load a scenario JSON file, checked as it is built."""
    path = Path(path)
    try:
        text = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scenario file {escape_controls(path)}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{escape_controls(path)}: parse error at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ConfigError(f"{escape_controls(path)}: parse error: JSON nested too deeply") from None
    except ValueError:   # an integer beyond the interpreter's digit limit
        raise ConfigError(f"{escape_controls(path)}: parse error: an integer has too many "
                          f"digits") from None
    return scenario_from_dict(data)


def scenario_to_dict(sc: Scenario) -> dict:
    """Serialize a Scenario to a plain dict (inverse of scenario_from_dict),
    its fields in declaration order: a part as its dict, an enum as its value."""
    d = sc._asdict()
    for name, _ in sc._parts:
        d[name] = d[name]._asdict()
    for name, _ in sc._enums:
        d[name] = d[name].value
    return d


def save_scenario(sc: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(sc), indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Built-in reference scenarios

def baseline_scenario() -> Scenario:
    """65 nm, flip-flop memory, 1 V supply: the reference design point."""
    return Scenario()


def scenario_65nm_sram() -> Scenario:
    return replace(Scenario(), memory_arch=MemoryArch.SRAM)


def scenario_65nm_sram_100mv() -> Scenario:
    sc = Scenario()
    return replace(sc, memory_arch=MemoryArch.SRAM, op=replace(sc.op, v_dd=0.1))


def scenario_14nm_sram_10mv() -> Scenario:
    sc = Scenario()
    return replace(
        sc,
        tech=apply_node(sc.tech, Node.NODE_14NM),
        memory_arch=MemoryArch.SRAM,
        op=replace(sc.op, v_dd=0.01),
    )


REFERENCE_SCENARIOS = {
    "65nm-ff-1v": baseline_scenario,
    "65nm-sram-1v": scenario_65nm_sram,
    "65nm-sram-100mv": scenario_65nm_sram_100mv,
    "14nm-sram-10mv": scenario_14nm_sram_10mv,
}


# The models that Scenario.validate calls. Both import this module, so they
# are bound here, once it is complete; validate reads them as module
# attributes.
from . import analog, noise  # noqa: E402
