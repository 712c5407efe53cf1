import os
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from semo import (
    AppSet,
    BatteryHealth,
    BatteryStatus,
    FileTreeSource,
    MalformedField,
    MissingField,
    SimulatedClock,
    make_app_set,
)
from semo.sources import FIELD_NAMES, BatterySample, resolve_source_root

from _helpers import LINUX_FAULTS, write_source_dir


@pytest.fixture
def source_dir(tmp_path):
    return write_source_dir(tmp_path / "bat")


class TestReadBatterySample:
    def test_parses_all_fields(self, source_dir):
        sample = FileTreeSource(source_dir).read_battery_sample(SimulatedClock(1_000))
        assert sample.ts_ms == 1_000
        assert sample.level_pct == 80
        assert sample.voltage_mv == 3900
        assert sample.temp_dc == 310
        assert sample.charge_uah is None
        assert sample.status is BatteryStatus.DISCHARGING
        assert sample.health is BatteryHealth.GOOD

    def test_charge_counter_present(self, tmp_path):
        root = write_source_dir(tmp_path, charge_now="1200000")
        sample = FileTreeSource(root).read_battery_sample(SimulatedClock())
        assert sample.charge_uah == 1_200_000

    def test_level_out_of_range_is_malformed(self, tmp_path):
        root = write_source_dir(tmp_path, capacity="142")
        with pytest.raises(MalformedField):
            FileTreeSource(root).read_battery_sample(SimulatedClock())

    @pytest.mark.parametrize("content", ["abc", "3.5", "", "12 34"])
    def test_non_integer_is_malformed(self, tmp_path, content):
        root = write_source_dir(tmp_path, capacity=content)
        with pytest.raises(MalformedField):
            FileTreeSource(root).read_battery_sample(SimulatedClock())

    @pytest.mark.parametrize("missing", ["capacity", "voltage_now", "temp", "status", "health"])
    def test_mandatory_file_absent(self, tmp_path, missing):
        root = write_source_dir(tmp_path)
        (root / missing).unlink()
        with pytest.raises(MissingField) as exc:
            FileTreeSource(root).read_battery_sample(SimulatedClock())
        assert exc.value.field == missing

    def test_malformed_charge_is_not_ignored(self, tmp_path):
        root = write_source_dir(tmp_path, charge_now="lots")
        with pytest.raises(MalformedField):
            FileTreeSource(root).read_battery_sample(SimulatedClock())

    # vendor strings that no kernel spelling matches
    @pytest.mark.parametrize("health", ["Trickle", "Over heat", "Battery missing"])
    def test_unknown_enum_strings_map_to_unknown(self, tmp_path, health):
        root = write_source_dir(tmp_path, status="Trickle", health=health)
        sample = FileTreeSource(root).read_battery_sample(SimulatedClock())
        assert sample.status is BatteryStatus.UNKNOWN
        assert sample.health is BatteryHealth.UNKNOWN

    # Linux power-supply faults that Android's BatteryManager has no value for
    @pytest.mark.parametrize("health", LINUX_FAULTS)
    def test_linux_faults_read_as_unspecified_failure(self, tmp_path, health):
        root = write_source_dir(tmp_path, health=health)
        sample = FileTreeSource(root).read_battery_sample(SimulatedClock())
        assert sample.health is BatteryHealth.UNSPECIFIED_FAILURE

    def test_multiword_enum_strings(self, tmp_path):
        root = write_source_dir(tmp_path, status="Not charging", health="Over voltage")
        sample = FileTreeSource(root).read_battery_sample(SimulatedClock())
        assert sample.status is BatteryStatus.NOT_CHARGING
        assert sample.health is BatteryHealth.OVER_VOLTAGE

    @pytest.mark.parametrize(
        "text,member",
        [
            ("Charging", BatteryStatus.CHARGING),
            ("Discharging", BatteryStatus.DISCHARGING),
            ("Full", BatteryStatus.FULL),
            ("Not charging", BatteryStatus.NOT_CHARGING),
            ("Unknown", BatteryStatus.UNKNOWN),
            ("Good", BatteryHealth.GOOD),
            ("Overheat", BatteryHealth.OVERHEAT),
            ("Dead", BatteryHealth.DEAD),
            ("Over voltage", BatteryHealth.OVER_VOLTAGE),
            ("Cold", BatteryHealth.COLD),
            ("Unspecified failure", BatteryHealth.UNSPECIFIED_FAILURE),
            ("Unknown", BatteryHealth.UNKNOWN),
            # the JEITA temperature states, as Android's healthd maps them
            ("Hot", BatteryHealth.OVERHEAT),
            ("Warm", BatteryHealth.GOOD),
            ("Cool", BatteryHealth.GOOD),
            *((fault, BatteryHealth.UNSPECIFIED_FAILURE) for fault in LINUX_FAULTS),
        ],
    )
    def test_every_kernel_spelling_maps_to_its_member(self, text, member):
        for spelled in (text, text.upper(), f" {text.lower()}\n"):
            assert type(member).from_source(spelled) is member

    def test_voltage_microvolt_floor_division(self, tmp_path):
        root = write_source_dir(tmp_path, voltage_now="3900499")
        assert FileTreeSource(root).read_battery_sample(SimulatedClock()).voltage_mv == 3900

    def test_nonpositive_voltage_with_known_status(self, tmp_path):
        root = write_source_dir(tmp_path, voltage_now="0")
        with pytest.raises(MalformedField):
            FileTreeSource(root).read_battery_sample(SimulatedClock())

    @pytest.mark.parametrize("name", ["temp", "charge_now", "status"])
    def test_unreadable_field_is_malformed(self, tmp_path, name):
        root = write_source_dir(tmp_path, charge_now="1200000")
        (root / name).unlink()
        (root / name).mkdir()
        with pytest.raises(MalformedField) as exc:
            FileTreeSource(root).read_battery_sample(SimulatedClock())
        assert exc.value.field == name

    def test_undecodable_field_is_malformed(self, tmp_path):
        root = write_source_dir(tmp_path)
        (root / "status").write_bytes(b"Dis\xffcharging\n")
        with pytest.raises(MalformedField) as exc:
            FileTreeSource(root).read_battery_sample(SimulatedClock())
        assert exc.value.field == "status"

    def test_no_trailing_newline_accepted(self, tmp_path):
        root = write_source_dir(tmp_path)
        (root / "capacity").write_text("55")
        assert FileTreeSource(root).read_battery_sample(SimulatedClock()).level_pct == 55

    def test_parsing_is_total(self, tmp_path):
        # Every source directory yields exactly one of
        # {sample, MissingField, MalformedField}.
        variants = [
            {},
            {"capacity": None},
            {"capacity": "abc"},
            {"capacity": "101"},
            {"voltage_now": "x"},
            {"status": "Whatever"},
            {"charge_now": "-3"},
        ]
        for i, overrides in enumerate(variants):
            root = tmp_path / f"case{i}"
            write_source_dir(root)
            for name, value in overrides.items():
                if value is None:
                    (root / name).unlink()
                else:
                    (root / name).write_text(value)
            try:
                sample = FileTreeSource(root).read_battery_sample(SimulatedClock())
            except (MissingField, MalformedField):
                continue
            assert sample.level_pct in range(0, 101)


class TestReadRunningApps:
    def test_dedupes_and_sorts(self, tmp_path):
        root = write_source_dir(tmp_path, apps=("browser", "game", "browser"))
        assert FileTreeSource(root).read_running_apps() == ("browser", "game")

    def test_empty_file(self, tmp_path):
        root = write_source_dir(tmp_path, apps=())
        assert FileTreeSource(root).read_running_apps() == ()

    def test_sort_order(self, tmp_path):
        root = write_source_dir(tmp_path, apps=("b", "a"))
        assert FileTreeSource(root).read_running_apps() == ("a", "b")

    def test_blank_lines_dropped(self, tmp_path):
        root = write_source_dir(tmp_path)
        (root / "running_apps").write_text("a\n\n  \nb\n")
        assert FileTreeSource(root).read_running_apps() == ("a", "b")

    def test_unreadable_listing_is_malformed(self, tmp_path):
        root = write_source_dir(tmp_path, apps=None)
        (root / "running_apps").mkdir()
        with pytest.raises(MalformedField):
            FileTreeSource(root).read_running_apps()

    def test_missing_listing(self, tmp_path):
        root = write_source_dir(tmp_path, apps=None)
        with pytest.raises(MissingField):
            FileTreeSource(root).read_running_apps()

    @given(
        names=st.lists(
            st.text(
                alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
                min_size=1,
                max_size=8,
            ),
            max_size=8,
        ),
        seed=st.randoms(),
    )
    def test_idempotent_and_order_insensitive(self, tmp_path_factory, names, seed):
        root = tmp_path_factory.mktemp("apps")
        shuffled = list(names)
        seed.shuffle(shuffled)
        write_source_dir(root, apps=shuffled)
        first = FileTreeSource(root).read_running_apps()
        write_source_dir(root, apps=names)
        assert FileTreeSource(root).read_running_apps() == first == make_app_set(names)


class TestListingMemo:
    """read_running_apps reads the file on every call but parses it only when its text changed."""

    def test_same_text_gives_the_same_app_set(self, tmp_path):
        root = write_source_dir(tmp_path, apps=("game", "browser"))
        source = FileTreeSource(root)
        first = source.read_running_apps()
        assert source.read_running_apps() is first
        (root / "running_apps").write_text("game\nbrowser\n")  # rewritten with the same text
        assert source.read_running_apps() is first == ("browser", "game")

    def test_rewritten_in_place_is_read_anew(self, tmp_path):
        root = write_source_dir(tmp_path, apps=("browser", "game"))
        listing = root / "running_apps"
        source = FileTreeSource(root)
        first = source.read_running_apps()
        inode = listing.stat().st_ino
        with open(listing, "r+", encoding="utf-8") as fh:  # same inode, and the same length
            fh.write("chatapp\nmaps\n")
        assert listing.stat().st_ino == inode
        second = source.read_running_apps()
        assert second == ("chatapp", "maps") and type(second) is AppSet
        listing.write_text("maps\nchatapp\n")  # the same set, spelled in another order
        assert source.read_running_apps() == second
        listing.write_text("")
        assert source.read_running_apps() == () and first == ("browser", "game")

    def test_a_failed_read_keeps_the_last_listing(self, tmp_path):
        root = write_source_dir(tmp_path, apps=("browser",))
        source = FileTreeSource(root)
        first = source.read_running_apps()
        (root / "running_apps").unlink()
        with pytest.raises(MissingField):
            source.read_running_apps()
        (root / "running_apps").write_bytes(b"\xff")
        with pytest.raises(MalformedField):
            source.read_running_apps()
        (root / "running_apps").write_text("browser\r\n")
        assert source.read_running_apps() is first

    @settings(max_examples=100, deadline=None)
    @given(
        listings=st.lists(
            st.none() | st.lists(st.sampled_from(["a", "b", " b", "c\t", "", "\u00e9"]), max_size=4).map(
                lambda names: "".join(f"{name}\n" for name in names)
            ),
            min_size=1,
            max_size=8,
        )
    )
    def test_each_read_gives_the_listing_and_reuses_only_for_the_same_text(self, tmp_path_factory, listings):
        root = write_source_dir(tmp_path_factory.mktemp("bat"), apps=None)
        source = FileTreeSource(root)
        last_text = last_apps = None
        for listing in listings:
            if listing is None:
                (root / "running_apps").unlink(missing_ok=True)
                with pytest.raises(MissingField):
                    source.read_running_apps()
                continue
            (root / "running_apps").write_text(listing)
            apps = source.read_running_apps()
            assert apps == make_app_set(listing.splitlines()) and type(apps) is AppSet
            assert (apps is last_apps) == (listing.strip() == last_text)
            last_text, last_apps = listing.strip(), apps


def reference_field(root: Path, name: str) -> str:
    """The text-mode read the os-level one replaced: Path.read_text, universal newlines."""
    path = root / name
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise MissingField(name, path) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedField(name, str(exc)) from None
    return text.strip()


def reference_int_field(root: Path, name: str) -> int:
    text = reference_field(root, name)
    try:
        return int(text)
    except ValueError:
        raise MalformedField(name, f"not an integer: {text!r}") from None


def reference_reads(root: Path):
    """(sample, apps) as the text-mode reader built them."""
    level = reference_int_field(root, "capacity")
    if not 0 <= level <= 100:
        raise MalformedField("capacity", f"percent out of range 0..100: {level}")
    voltage_uv = reference_int_field(root, "voltage_now")
    temp_dc = reference_int_field(root, "temp")
    status = BatteryStatus.from_source(reference_field(root, "status"))
    health = BatteryHealth.from_source(reference_field(root, "health"))
    try:
        charge_uah = reference_int_field(root, "charge_now")
    except MissingField:
        charge_uah = None
    try:
        sample = BatterySample(1000, level, voltage_uv // 1000, temp_dc, charge_uah, status, health)
    except ValueError as exc:
        raise MalformedField("sample", str(exc)) from None
    return sample, make_app_set(reference_field(root, "running_apps").splitlines())


def new_reads(root: Path):
    return FileTreeSource(root).read_battery_sample(SimulatedClock(1000)), FileTreeSource(root).read_running_apps()


def outcome(read, root: Path):
    """The reads' result, or the error's class and field; a MissingField also keeps its message."""
    try:
        return read(root)
    except MissingField as exc:
        return MissingField, exc.field, str(exc)
    except MalformedField as exc:
        return MalformedField, exc.field


# Values near what each field holds; the test below wraps them in EDGES.
PLAUSIBLE = {
    "capacity": [b"80", b"0", b"100", b"101", b"-1", b"8 0", b"\xd9\xa8"],
    "voltage_now": [b"3900000", b"0", b"999"],
    "temp": [b"310", b"-40", b"1_0"],
    "charge_now": [b"1200000", b"-3"],
    "status": [b"Discharging", b"Not charging", b"Not\r\ncharging", b"Not\rcharging", b"FULL"],
    "health": [b"Good", b"Over voltage", b"Over\rvoltage"],
    "running_apps": [b"b\na", b"a\r\nb\rc", b"a\r\r\nb", "x\x85y\u2028z".encode()],
}
EDGES = st.sampled_from([b"", b"\n", b"\r\n", b"\r", b" \r\n\r", b"\xef\xbb\xbf", b"\xff", b"\xc3"])


class TestOsLevelReads:
    """The os.open/os.read field reads give what the text-mode Path.read_text reads gave."""

    @pytest.mark.parametrize("name", FIELD_NAMES)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_same_outcome_as_read_text(self, tmp_path_factory, name, data):
        content = data.draw(
            st.one_of(
                st.binary(max_size=24),
                st.tuples(EDGES, st.sampled_from(PLAUSIBLE[name]), EDGES).map(b"".join),
            )
        )
        root = write_source_dir(tmp_path_factory.mktemp("bat"), charge_now="1200000")
        (root / name).write_bytes(content)
        assert outcome(new_reads, root) == outcome(reference_reads, root)

    @pytest.mark.parametrize("name", FIELD_NAMES)
    @pytest.mark.parametrize("case", ["missing", "directory"])
    def test_same_outcome_without_a_readable_file(self, tmp_path, name, case):
        root = write_source_dir(tmp_path, charge_now="1200000")
        (root / name).unlink()
        if case == "directory":
            (root / name).mkdir()
        assert outcome(new_reads, root) == outcome(reference_reads, root)

    def test_listing_over_one_read(self, tmp_path):
        root = write_source_dir(tmp_path)
        listing = b"".join(b"app%05d\r\n" % i for i in range(8000))
        assert len(listing) > 1 << 16
        (root / "running_apps").write_bytes(listing)
        apps = FileTreeSource(root).read_running_apps()
        assert len(apps) == 8000 and apps == reference_reads(root)[1]

    def test_file_replaced_by_rename_is_read_anew(self, tmp_path):
        root = write_source_dir(tmp_path)
        source = FileTreeSource(root)
        assert source.read_battery_sample(SimulatedClock()).level_pct == 80
        (root / "capacity.new").write_text("79\n")
        os.replace(root / "capacity.new", root / "capacity")
        assert source.read_battery_sample(SimulatedClock()).level_pct == 79


class TestSourceRoot:
    def test_env_override(self, tmp_path, monkeypatch):
        root = write_source_dir(tmp_path, capacity="33")
        monkeypatch.setenv("SEMO_SOURCE_ROOT", str(root))
        assert FileTreeSource().read_battery_sample(SimulatedClock()).level_pct == 33

    def test_argument_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SEMO_SOURCE_ROOT", "/nowhere")
        root = write_source_dir(tmp_path)
        assert resolve_source_root(root) == root

    def test_default_without_env(self, monkeypatch):
        monkeypatch.delenv("SEMO_SOURCE_ROOT", raising=False)
        assert str(resolve_source_root()) == "/sys/class/power_supply/BAT0"

    def test_file_tree_source_combines_reads(self, source_dir):
        source = FileTreeSource(source_dir)
        assert source.read_battery_sample(SimulatedClock(5)).ts_ms == 5
        assert source.read_running_apps() == ("browser", "game")


def test_make_app_set_normalizes():
    assert make_app_set([" b ", "a", "b", ""]) == ("a", "b")


@pytest.mark.parametrize(
    "names, message",
    [
        ("browser", "app names must be an iterable of strings, got 'browser'"),
        ("", "app names must be an iterable of strings, got ''"),
        ([1], "app names must be an iterable of strings, got [1]"),
        (("a", None), "app names must be an iterable of strings, got ('a', None)"),
        ([b"a"], "app names must be an iterable of strings, got [b'a']"),
        (5, "app names must be an iterable of strings, got 5"),
    ],
    ids=["string", "empty-string", "int", "none", "bytes", "no-iterable"],
)
def test_make_app_set_refuses_what_is_not_names(names, message):
    with pytest.raises(ValueError) as refused:
        make_app_set(names)
    assert str(refused.value) == message


# Names of any text but lone surrogates, and a few that differ only in whitespace.
app_names = st.text(st.characters(blacklist_categories=("Cs",)), max_size=3) | st.sampled_from(
    ["a", "b", " a", "b\t", "\u3000c", ""]
)
stripped_names = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=3).filter(
    lambda name: name == name.strip()
)
# Lists of any names, and sorted lists of unique ones, which are normalized about one time in four.
app_name_lists = st.lists(app_names, max_size=4) | st.lists(
    stripped_names | app_names, max_size=4, unique=True
).map(sorted)


class TestAppSet:
    @pytest.mark.parametrize(
        "names, message",
        [
            ([""], "app names must be non-empty strings"),
            (["a", " "], "app names must be non-empty strings"),
            (["a", 1], "app names must be non-empty strings"),
            (["a", " b"], "app name ' b' has surrounding whitespace"),
            (["b", "a"], "apps must be sorted and unique"),
            (["a", "a"], "apps must be sorted and unique"),
            (["a", "\ud800"], "app names must be valid UTF-8 text"),
        ],
    )
    def test_each_rule_gives_its_message(self, names, message):
        with pytest.raises(ValueError) as refused:
            AppSet(names)
        assert str(refused.value) == message

    def test_equal_to_its_tuple(self):
        apps = AppSet(("a", "b"))
        assert apps == ("a", "b") and hash(apps) == hash(("a", "b"))
        assert AppSet() == () and type(AppSet()) is AppSet
        with pytest.raises(AttributeError):
            apps.extra = 1  # no instance dict: an AppSet is as small as its tuple

    def test_make_app_set_and_the_source_give_an_app_set(self, source_dir):
        assert type(make_app_set(["b ", "a", "a"])) is AppSet
        assert type(FileTreeSource(source_dir).read_running_apps()) is AppSet

    @settings(max_examples=300, deadline=None)
    @given(names=app_name_lists)
    def test_builds_exactly_when_normalized(self, names):
        try:
            apps = AppSet(names)
        except ValueError:
            apps = None
        normalized = list(names) == sorted({name.strip() for name in names} - {""})
        assert (apps is not None) == normalized
        if normalized:
            assert apps == tuple(names) == make_app_set(names)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_subset_is_the_app_set_of_the_kept_names(self, data):
        apps = make_app_set(data.draw(st.lists(app_names, max_size=6), label="names"))
        keep = data.draw(st.lists(st.booleans(), min_size=len(apps), max_size=len(apps)), label="keep")
        kept = apps.subset(keep)
        assert type(kept) is AppSet
        assert kept == AppSet([name for name, flag in zip(apps, keep) if flag])
