"""Object router tests: feasibility, selection table, subsets, routing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obar.context import (
    ContextTracker,
    ListenerInfo,
    SpeakerLayout,
    parse_speaker,
    build_scenario,
)
from obar import renderers, routing
from obar.errors import SourceInsideArray
from obar.geometry import Direction3
from obar.renderclass import KNOWN_RENDERER_NAMES, RendererClass, RendererKind
from obar.routing import (
    BAND_LIMIT_POWER_FRACTION,
    PM_ZONE_RADIUS_M,
    RendererAssignment,
    band_capable_subset,
    build_drive,
    max_ambi_order,
    pm_control_points,
    pm_design,
    select_renderer,
    wfs_segment,
)
from obar.rules import default_selection_rules, parse_selection_rules
from obar.scene import (
    AdvancedMetadata,
    AudioObject,
    ObjectType,
    Stem,
    parse_scene,
)

from conftest import (
    FS,
    band_table_of,
    infeasibility_reasons,
    music_like,
    noise_like,
    ring_speakers,
    route_scene,
    speech_like,
)


def make_layout(docs):
    return SpeakerLayout(tuple(
        parse_speaker(d, f"s[{i}]") for i, d in enumerate(docs)))


def line_array(count, spacing_m, y_offset=2.0, prefix="w", jitter=None):
    """Speakers along a line in front of the listener, spacing in meters;
    jitter[i] moves speaker i along the line by that fraction of a spacing."""
    docs = []
    half = (count - 1) / 2.0
    for i in range(count):
        x = y_offset
        y = (i - half + (jitter[i] if jitter else 0.0)) * spacing_m
        az = np.degrees(np.arctan2(y, x))
        dist = float(np.hypot(x, y))
        docs.append({"id": f"{prefix}{i}",
                     "position": {"az": float(az), "el": 0.0, "dist": dist}})
    return docs


def band_row(obj, speakers):
    """obj's row of the band table over these speakers."""
    return band_table_of([obj], speakers)[obj.object_id]


def select(obj, layout, nearest_device, selection_rules=None):
    """select_renderer with the default table (or the given one), an empty
    context namespace and obj's band row."""
    return select_renderer(obj, layout, nearest_device,
                           selection_rules or default_selection_rules(), {},
                           FS, band_row(obj, layout.speakers))


def make_object(oid="obj", otype=ObjectType.EFFECT, az=0.0, dist=None,
                samples=None, **over):
    stem = Stem(ref=f"{oid}.wav", sample_rate=FS,
                samples=samples if samples is not None else music_like(0.25))
    position = over.pop("position", Direction3(az, 0.0, dist))
    return AudioObject(object_id=oid, object_type=otype, stems=(stem,),
                       position=position, **over)


@st.composite
def jittered_layouts(draw):
    """Rings and lines of 1-16 speakers, each moved by up to 0.4 of the
    nominal spacing along the arrangement, with elevated speakers stacked
    above some of them (same azimuth and distance)."""
    count = draw(st.integers(1, 16))
    jitter = draw(st.lists(st.floats(-0.4, 0.4), min_size=count, max_size=count))
    if draw(st.booleans()):
        radius = draw(st.floats(0.5, 3.0))
        docs = [{"id": f"s{i}",
                 "position": {"az": ((i + j) * 360.0 / count + 180.0) % 360.0 - 180.0,
                              "el": 0.0, "dist": radius}}
                for i, j in enumerate(jitter)]
    else:
        docs = line_array(count, draw(st.floats(0.1, 0.8)), jitter=jitter)
    stacked = draw(st.lists(st.integers(0, count - 1), max_size=count, unique=True))
    docs += [{"id": f"h{i}",
              "position": dict(docs[i]["position"], el=draw(st.floats(15.0, 60.0)))}
             for i in stacked]
    return make_layout(docs)


@st.composite
def probe_objects(draw):
    otype = draw(st.sampled_from(list(ObjectType)))
    if draw(st.booleans()):
        return make_object("x", otype, position=None)
    dist = draw(st.one_of(st.none(), st.floats(0.3, 8.0)))
    return make_object("x", otype, position=Direction3(
        draw(st.floats(-180.0, 180.0)), draw(st.floats(-30.0, 30.0)), dist))


class TestFeasibility:
    def test_stereo_pair(self):
        layout = make_layout([
            {"id": "l", "position": {"az": 45.0, "el": 0.0, "dist": 2.0}},
            {"id": "r", "position": {"az": -45.0, "el": 0.0, "dist": 2.0}},
        ])
        reasons = infeasibility_reasons(layout, make_object(az=10.0))
        assert set(reasons) == {"AmbiMM", "WFS", "PM"}

    def test_single_speaker_with_distant_source(self):
        layout = make_layout(ring_speakers(1))
        reasons = infeasibility_reasons(layout, make_object(az=0.0, dist=5.0))
        assert set(reasons) == {"VBAP", "AmbiMM", "WFS", "Diffuse"}

    def test_eight_ring_carries_orders_one_to_three(self):
        layout = make_layout(ring_speakers(8))
        assert "AmbiMM" not in infeasibility_reasons(layout, make_object(az=10.0))
        assert max_ambi_order(layout.speakers) == 3

    def test_stacked_speakers_count_once_for_mode_matching(self):
        """Three speakers, two of them stacked at az 0: two azimuths cannot
        carry order 1, and the reason is the one selection meets."""
        layout = make_layout([
            {"id": "low", "position": {"az": 0.0, "el": 0.0, "dist": 2.0}},
            {"id": "high", "position": {"az": 0.0, "el": 45.0, "dist": 2.0}},
            {"id": "side", "position": {"az": 120.0, "el": 0.0, "dist": 2.0}},
        ])
        assert max_ambi_order(layout.speakers) == 0
        reasons = infeasibility_reasons(layout, make_object(az=10.0))
        assert reasons["AmbiMM"] == (
            "order 1 needs 3 speakers at distinct azimuths, layout has 2")

    def test_object_without_position_cannot_pan(self):
        layout = make_layout(ring_speakers(5))
        reasons = infeasibility_reasons(layout, make_object(position=None))
        assert "VBAP" in reasons
        assert "PM" in reasons
        assert "AP1" not in reasons

    def test_wide_ring_has_no_wfs_segment(self):
        assert wfs_segment(make_layout(ring_speakers(5, radius=2.0))) is None

    def test_dense_line_supports_wfs(self):
        layout = make_layout(line_array(6, 0.3))
        segment = wfs_segment(layout)
        assert segment is not None and len(segment) == 6
        assert "WFS" not in infeasibility_reasons(layout, make_object(az=0.0, dist=6.0))

    def test_dense_ring_wraps_around(self):
        layout = make_layout(ring_speakers(16, radius=1.0))
        segment = wfs_segment(layout)
        assert segment is not None and len(segment) == 16

    def test_broken_line_keeps_longest_run(self):
        docs = line_array(4, 0.3, prefix="a") + line_array(5, 0.3, y_offset=-3.0, prefix="b")
        layout = make_layout(docs)
        segment = wfs_segment(layout)
        assert segment is not None
        assert len(segment) == 5
        assert all(sid.startswith("b") for sid in segment)

    @pytest.mark.parametrize("radius_m", [1.5, 2.0, 2.5])
    def test_wfs_reason_iff_drive_cannot_be_built(self, radius_m):
        """A 32-speaker ring is one WFS segment at these radii; the source
        at 2 m must also lie behind every speaker of it, as build_drive
        requires."""
        layout = make_layout(ring_speakers(32, radius=radius_m))
        segment = wfs_segment(layout)
        assert segment is not None and len(segment) == 32
        obj = make_object(az=30.0, dist=2.0)
        reasons = infeasibility_reasons(layout, obj)
        assignment = RendererAssignment(
            obj.object_id, RendererClass(RendererKind.WFS_GAIN_DELAY), segment)
        if radius_m < 2.0:
            assert "WFS" not in reasons
            build_drive(assignment, layout, obj, FS)
        else:
            assert reasons["WFS"] == (
                f"source at 2.0 m is not behind a speaker at {radius_m} m")
            with pytest.raises(SourceInsideArray, match="not behind"):
                build_drive(assignment, layout, obj, FS)

    def test_reasons_for_missing_renderers(self):
        layout = make_layout(ring_speakers(2))
        reasons = infeasibility_reasons(layout, make_object(az=0.0))
        assert "AmbiMM" in reasons
        assert "WFS" in reasons
        assert "PM" in reasons


class TestBandCapability:
    def _speakers(self):
        return make_layout([
            {"id": "full", "position": {"az": 0.0, "el": 0.0, "dist": 2.0},
             "bandwidth_hz": {"low": 40.0, "high": 20000.0}},
            {"id": "phone", "position": {"az": 30.0, "el": 0.0, "dist": 1.0},
             "bandwidth_hz": {"low": 300.0, "high": 8000.0}},
        ]).speakers

    def test_bassy_stem_drops_narrow_speakers(self):
        bass = noise_like(0.25, seed=9, lo=60.0, hi=200.0)
        obj = make_object(samples=bass)
        kept = band_capable_subset(self._speakers(), band_row(obj, self._speakers()))
        assert [s.speaker_id for s in kept] == ["full"]

    def test_bright_stem_keeps_everyone(self):
        bright = noise_like(0.25, seed=9, lo=1000.0, hi=6000.0)
        obj = make_object(samples=bright)
        kept = band_capable_subset(self._speakers(), band_row(obj, self._speakers()))
        assert [s.speaker_id for s in kept] == ["full", "phone"]

    def test_emptied_subset_is_restored(self):
        speakers = [s for s in self._speakers() if s.speaker_id == "phone"]
        bass = noise_like(0.25, seed=9, lo=60.0, hi=200.0)
        kept = band_capable_subset(speakers,
                                   band_row(make_object(samples=bass), speakers))
        assert [s.speaker_id for s in kept] == ["phone"]

    def test_multi_stem_object_is_analysed_as_its_mono_mix(self):
        speakers = make_layout([
            {"id": "full", "position": {"az": 0.0, "el": 0.0, "dist": 2.0},
             "bandwidth_hz": {"low": 40.0, "high": 20000.0}},
            {"id": "mid", "position": {"az": 30.0, "el": 0.0, "dist": 1.0},
             "bandwidth_hz": {"low": 200.0, "high": 8000.0}},
        ]).speakers
        bright = noise_like(0.25, seed=9, lo=1000.0, hi=6000.0)
        bass = noise_like(0.25, seed=10, lo=60.0, hi=180.0)
        obj = make_object(samples=bright)
        obj = AudioObject(object_id=obj.object_id, object_type=obj.object_type,
                          stems=(obj.stems[0], Stem("bass.wav", FS, bass)),
                          position=obj.position)
        kept = band_capable_subset(speakers, band_row(obj, speakers))
        assert [s.speaker_id for s in kept] == ["full"]


def _reference_below_edge_fraction(samples, sample_rate, edge_hz):
    """Band analysis as first shipped: one full-length transform per speaker."""
    spectrum = np.abs(np.fft.rfft(np.asarray(samples, dtype=float))) ** 2
    total = float(np.sum(spectrum))
    if total <= 0.0:
        return 0.0
    freqs = np.fft.rfftfreq(len(samples), 1.0 / sample_rate)
    return float(np.sum(spectrum[freqs < edge_hz])) / total


def _reference_subset(speakers, samples, sample_rate):
    if len(samples) == 0:
        return list(speakers)
    kept = [s for s in speakers
            if _reference_below_edge_fraction(samples, sample_rate, s.bandwidth_hz.low_hz)
            <= BAND_LIMIT_POWER_FRACTION]
    return kept if kept else list(speakers)


def _band_stem(n, seed, cut_hz, leak_db):
    """Noise above cut_hz plus broadband noise leak_db below it."""
    rng = np.random.default_rng(seed)
    spec = np.fft.rfft(rng.standard_normal(n))
    f = np.fft.rfftfreq(n, 1.0 / FS)
    spec[f < cut_hz] *= 10.0 ** (leak_db / 20.0)
    return np.fft.irfft(spec, n)


class TestBandTableProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 4096),
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 3000.0),
        st.floats(-90.0, 0.0),
        st.lists(st.floats(20.0, 4000.0), min_size=1, max_size=8),
    )
    def test_table_subset_matches_per_speaker_analysis(self, n, seed, cut_hz,
                                                       leak_db, edges):
        samples = _band_stem(n, seed, cut_hz, leak_db) if n else np.zeros(0)
        obj = make_object(samples=samples)
        speakers = make_layout([
            {"id": f"s{i}", "position": {"az": 20.0 * i, "el": 0.0, "dist": 2.0},
             "bandwidth_hz": {"low": edge, "high": 20000.0}}
            for i, edge in enumerate(edges)
        ]).speakers
        fractions = band_row(obj, speakers)
        for subset in (speakers, speakers[::2], speakers[1:]):
            got = band_capable_subset(subset, fractions)
            assert got == _reference_subset(subset, samples, FS)
        assert all(type(k) is float and type(v) is float
                   for k, v in fractions.items())
        assert set(fractions) == {s.bandwidth_hz.low_hz for s in speakers}
        if n:
            assert fractions == {
                edge: _reference_below_edge_fraction(samples, FS, edge)
                for edge in fractions}


class TestSelection:
    def _ring(self, count=5):
        return make_layout(ring_speakers(count))

    def test_offscreen_dialogue_goes_to_nearest_device(self):
        layout = self._ring()
        narrator = make_object("narrator", ObjectType.DIALOGUE, az=0.0,
                               samples=speech_like(0.25))
        assignment = select(narrator, layout, nearest_device="s1")
        assert assignment.renderer.kind is RendererKind.AP1_NEAREST
        assert assignment.speaker_subset == ("s1",)
        assert assignment.subset_kind == "nearest_device"

    def test_onscreen_dialogue_pans(self):
        layout = self._ring()
        actor = make_object("actor", ObjectType.DIALOGUE, az=20.0,
                            samples=speech_like(0.25),
                            advanced=AdvancedMetadata(onscreen=True))
        assignment = select(actor, layout, nearest_device="s0")
        assert assignment.renderer.kind is RendererKind.AP3_VBAP

    def test_two_dialogue_objects_diverge(self):
        layout = self._ring()
        narrator = make_object("narrator", ObjectType.DIALOGUE, az=0.0,
                               samples=speech_like(0.25))
        actor = make_object("actor", ObjectType.DIALOGUE, az=20.0,
                            samples=speech_like(0.25),
                            advanced=AdvancedMetadata(onscreen=True))
        a = select(narrator, layout, "s0").renderer
        b = select(actor, layout, "s0").renderer
        assert a.kind is not b.kind

    def test_ambience_takes_highest_feasible_order(self):
        layout = self._ring(8)
        bed = make_object("bed", ObjectType.AMBIENCE, az=180.0)
        assignment = select(bed, layout, "s0")
        assert assignment.renderer.kind is RendererKind.AMBI_MM
        # backdrop (|az| > 90) on an 8-ring leaves 3 speakers: order 1
        assert assignment.subset_kind == "backdrop"
        assert assignment.renderer.order == 1

    def test_ambience_backdrop_falls_back_to_full_ring(self):
        layout = self._ring(5)   # backdrop has only 2 speakers
        bed = make_object("bed", ObjectType.AMBIENCE, az=180.0)
        assignment = select(bed, layout, "s0")
        assert assignment.renderer.kind is RendererKind.AMBI_MM
        assert assignment.subset_kind == "all"
        assert assignment.renderer.order == 2

    def test_ambience_on_5_1_4_counts_azimuths(self):
        """5.1.4: the backdrop's four speakers stand at two azimuths, so
        "highest" falls back to the whole layout, whose five azimuths carry
        order 2 (not the order 3 its nine speakers would suggest); the
        probe agrees."""
        bed = [(az, 0.0) for az in (0.0, 30.0, -30.0, 110.0, -110.0)]
        heights = [(az, 45.0) for az in (30.0, -30.0, 110.0, -110.0)]
        layout = make_layout([
            {"id": f"s{i}", "position": {"az": az, "el": el, "dist": 2.0}}
            for i, (az, el) in enumerate(bed + heights)])
        bed_obj = make_object("bed", ObjectType.AMBIENCE, az=180.0)
        assignment = select(bed_obj, layout, "s0")
        assert assignment.renderer == RendererClass(RendererKind.AMBI_MM, 2)
        assert assignment.speaker_subset == tuple(layout.ids())
        assert assignment.subset_kind == "all"
        assert "AmbiMM" not in infeasibility_reasons(layout, bed_obj)
        assert max_ambi_order(layout.speakers) == 2

    def test_diffuse_type_decorrelates(self):
        assignment = select(
            make_object("wash", ObjectType.DIFFUSE, position=None),
            self._ring(), "s0")
        assert assignment.renderer.kind is RendererKind.DIFFUSE

    def test_high_diffuseness_decorrelates_any_type(self):
        assignment = select(
            make_object("pad", ObjectType.EFFECT, az=10.0, diffuseness=0.8),
            self._ring(), "s0")
        assert assignment.renderer.kind is RendererKind.DIFFUSE

    def test_positioned_effect_without_distance_pans(self):
        assignment = select(
            make_object("thud", ObjectType.EFFECT, az=-40.0), self._ring(), "s0")
        assert assignment.renderer.kind is RendererKind.AP3_VBAP

    def test_distant_effect_uses_wfs_on_dense_array(self):
        layout = make_layout(line_array(6, 0.3))
        hit = make_object("hit", ObjectType.EFFECT, az=0.0, dist=6.0)
        assignment = select(hit, layout, "w0")
        assert assignment.renderer.kind is RendererKind.WFS_GAIN_DELAY
        assert len(assignment.speaker_subset) == 6

    def test_music_with_distance_pressure_matches(self):
        score = make_object("score", ObjectType.MUSIC, az=15.0, dist=4.0)
        assignment = select(score, self._ring(), "s0")
        assert assignment.renderer.kind is RendererKind.PM_SINGLE_ZONE

    def test_music_without_position_mode_matches(self):
        score = make_object("score", ObjectType.MUSIC, position=None)
        assignment = select(score, self._ring(), "s0")
        assert assignment.renderer.kind is RendererKind.AMBI_MM

    def test_distant_music_still_pressure_matches(self):
        """Bulk path delay is carried by the drive's delays, not the PM
        filter design, so far sources keep their assignment."""
        score = make_object("score", ObjectType.MUSIC, az=0.0, dist=30.0)
        assignment = select(score, self._ring(), "s0")
        assert assignment.renderer.kind is RendererKind.PM_SINGLE_ZONE

    def test_preferred_renderer_wins_when_feasible(self):
        score = make_object("score", ObjectType.MUSIC, az=15.0, dist=4.0,
                            advanced=AdvancedMetadata(preferred_renderer="Diffuse"))
        assignment = select(score, self._ring(), "s0")
        assert assignment.renderer.kind is RendererKind.DIFFUSE

    def test_infeasible_preference_falls_through(self):
        score = make_object("score", ObjectType.MUSIC, az=15.0, dist=4.0,
                            advanced=AdvancedMetadata(preferred_renderer="WFS"))
        assignment = select(score, self._ring(), "s0")
        assert assignment.renderer.kind is RendererKind.PM_SINGLE_ZONE

    @settings(max_examples=60, deadline=None)
    @given(layout=jittered_layouts(), obj=probe_objects())
    def test_assignments_respect_feasibility(self, layout, obj):
        """Property: the selected renderer is feasible (its kind has no
        reason, and mode matching runs at an order the layout carries), and
        the reasons name exactly the kinds the layout cannot drive: a kind
        has no reason exactly when a one-row table asking for it on subset
        "all" (mode matching at order "highest") selects it."""
        assignment = select(obj, layout, layout.ids()[0])
        reasons = infeasibility_reasons(layout, obj)
        for kind in RendererKind:
            row = {"match": "true", "renderer": kind.value, "subset": "all"}
            if kind is RendererKind.AMBI_MM:
                row["order"] = "highest"
            table = parse_selection_rules({"schema": "selection v1", "rules": [row]})
            selected = select(obj, layout, layout.ids()[0], table).renderer.kind
            assert (kind.value not in reasons) == (selected is kind), (
                kind, reasons.get(kind.value), layout.speakers)
        renderer = assignment.renderer
        top_order = max_ambi_order(layout.speakers)
        assert renderer.kind.value not in reasons, (assignment, layout.ids())
        if renderer.kind is RendererKind.AMBI_MM:
            assert 1 <= renderer.order <= top_order, (assignment, layout.ids())
        else:
            assert renderer.order is None, assignment
        assert set(reasons) <= set(KNOWN_RENDERER_NAMES) - {"AP1"}
        # The converse is not asserted: order "highest" steps down past a
        # rank-deficient decode, but even order 1 can be rank deficient.
        if top_order < 1:
            assert "AmbiMM" in reasons

    def test_custom_table(self):
        table = parse_selection_rules({
            "schema": "selection v1",
            "rules": [{"match": "true", "renderer": "Diffuse"},
                      {"match": "true", "renderer": "AP1"}],
        })
        assignment = select(
            make_object("x", ObjectType.MUSIC, az=0.0), self._ring(), "s0",
            selection_rules=table)
        assert assignment.renderer.kind is RendererKind.DIFFUSE


class TestDriveBuilding:
    def test_ap1_one_hot(self):
        layout = make_layout(ring_speakers(4))
        assignment = RendererAssignment(
            "o", RendererClass(RendererKind.AP1_NEAREST), layout.ids())
        drive = build_drive(assignment, layout, make_object(az=85.0), FS)
        assert drive.gains.tolist() == [0.0, 1.0, 0.0, 0.0]
        assert np.all(drive.delays_s == 0.0)

    def test_ambi_gains_power_normalized(self):
        layout = make_layout(ring_speakers(5))
        assignment = RendererAssignment(
            "o", RendererClass(RendererKind.AMBI_MM, 2), layout.ids())
        drive = build_drive(assignment, layout, make_object(az=33.0), FS)
        assert float(np.sum(drive.gains**2)) == pytest.approx(1.0, abs=1e-9)

    def test_wfs_delays_offset_to_zero(self):
        layout = make_layout(line_array(6, 0.3))
        assignment = RendererAssignment(
            "o", RendererClass(RendererKind.WFS_GAIN_DELAY), layout.ids())
        drive = build_drive(assignment, layout, make_object(az=0.0, dist=6.0), FS)
        assert drive.delays_s.min() == 0.0
        assert float(np.sum(drive.gains**2)) == pytest.approx(1.0, abs=1e-12)

    def test_pm_drive_reproduces_zone_pressure(self):
        """The calibrated filters rebuild the target wave over the control
        zone: per-frequency mismatch stays under 20% through the mid band."""
        layout = make_layout(ring_speakers(5))
        assignment = RendererAssignment(
            "o", RendererClass(RendererKind.PM_SINGLE_ZONE), layout.ids())
        source = Direction3(0.0, 0.0, 4.0)
        drive = build_drive(assignment, layout, make_object(position=source), FS)
        assert len(drive.firs) == 5
        assert all(np.all(np.isfinite(f)) for f in drive.firs)
        assert np.all(np.asarray(drive.delays_s) >= 0.0)

        spk = np.array([layout.by_id(s).position.cartesian()
                        for s in assignment.speaker_subset])
        ctl = np.array([p.cartesian() for p in pm_control_points()])
        src = np.array(source.cartesian())
        d_spk = np.linalg.norm(ctl[:, None, :] - spk[None, :, :], axis=2)
        d_src = np.linalg.norm(ctl - src[None, :], axis=1)
        taps = np.array(drive.firs)
        spectra = np.fft.rfft(taps, axis=1)
        grid = np.fft.rfftfreq(taps.shape[1], 1.0 / FS)
        delays = np.asarray(drive.delays_s)
        for f_hz in (250.0, 500.0, 1000.0, 2000.0):
            fi = int(np.argmin(np.abs(grid - f_hz)))
            g = np.exp(-2j * np.pi * grid[fi] * d_spk / 343.0) / (4 * np.pi * d_spk)
            target = (np.exp(-2j * np.pi * grid[fi] * d_src / 343.0)
                      / (4 * np.pi * d_src)) * 4.0 * np.pi * 4.0
            # each lane is FIR then delay; fold both into one transfer
            lane = spectra[:, fi] * np.exp(-2j * np.pi * grid[fi] * delays)
            achieved = g @ lane
            # remove the FIR centre-tap linear phase before comparing
            achieved *= np.exp(2j * np.pi * grid[fi] * (taps.shape[1] // 2) / FS)
            err = np.linalg.norm(achieved - target) / np.linalg.norm(target)
            assert err < 0.2, (f_hz, err)


def _fresh_pm_drive(layout, ids, source):
    """build_drive's PM branch on an unmemoised pm_filters solve."""
    design = renderers.pm_filters(
        [layout.by_id(s).position for s in ids], pm_control_points(), source,
        beta=renderers.PM_BETA_DEFAULT, sample_rate=FS)
    scale = 4.0 * np.pi * source.distance_m
    delays = np.array(design.align_delays_s, dtype=float)
    if delays.min() < 0.0:
        delays -= delays.min()
    return [f * scale for f in design.firs], delays


class TestPMDesignMemo:
    @settings(max_examples=25, deadline=None)
    @given(count=st.integers(3, 12), az=st.floats(-180.0, 180.0),
           dist=st.floats(2.5, 8.0))
    def test_memoised_drive_equals_fresh_solve(self, count, az, dist):
        layout = make_layout(ring_speakers(count))
        source = Direction3(az, 0.0, dist)
        assignment = RendererAssignment(
            "o", RendererClass(RendererKind.PM_SINGLE_ZONE), layout.ids())
        firs, delays = _fresh_pm_drive(layout, layout.ids(), source)
        pm_design.cache_clear()
        for _ in range(3):
            drive = build_drive(assignment, layout, make_object(position=source), FS)
            assert [f.tobytes() for f in drive.firs] == [f.tobytes() for f in firs]
            assert drive.delays_s.tobytes() == delays.tobytes()
            assert drive.gains.tobytes() == np.ones(count).tobytes()
        info = pm_design.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_shared_design_is_read_only(self):
        dirs = tuple(s.position for s in make_layout(ring_speakers(5)).speakers)
        design = pm_design(dirs, Direction3(10.0, 0.0, 3.0), FS)
        assert pm_design(dirs, Direction3(10.0, 0.0, 3.0), FS) is design
        for array in (design.freqs, design.spectra, design.firs,
                      design.align_delays_s):
            with pytest.raises(ValueError):
                array.flat[0] = 0.0

    @pytest.fixture
    def solves(self, monkeypatch):
        """Sources of the real pm_filters solves, counted where the memo
        looks pm_filters up; the memo starts empty."""
        sources = []

        def counting(*args, **kwargs):
            sources.append(args[2])
            return renderers.pm_filters(*args, **kwargs)

        pm_design.cache_clear()
        monkeypatch.setattr(routing, "pm_filters", counting)
        return sources

    def test_each_geometry_is_solved_once_through_the_module_global(self, solves):
        layout = make_layout(ring_speakers(6))
        assignment = RendererAssignment(
            "o", RendererClass(RendererKind.PM_SINGLE_ZONE), layout.ids())
        near, far = Direction3(20.0, 0.0, 3.0), Direction3(20.0, 0.0, 4.0)
        for source in (near, far, near, far, near):
            build_drive(assignment, layout, make_object(position=source), FS)
        assert solves == [near, far]

    def test_source_inside_array_raises_on_every_call(self, solves):
        layout = make_layout(ring_speakers(5))
        assignment = RendererAssignment(
            "o", RendererClass(RendererKind.PM_SINGLE_ZONE), layout.ids())
        # a control point of the zone: the source coincides with it
        inside = make_object(position=Direction3(0.0, 0.0, PM_ZONE_RADIUS_M))
        for _ in range(3):
            with pytest.raises(SourceInsideArray):
                build_drive(assignment, layout, inside, FS)
        assert len(solves) == 3


class TestCrossfadesAndRouting:
    """Routing re-selects from the current scene alone; the engine
    crossfades each object whose assignment changed (test_engine_cli)."""

    def _demo(self, basic_scene_dir):
        scene = parse_scene(basic_scene_dir[1])
        layout = make_layout(ring_speakers(5))
        listener = ListenerInfo(
            listener_id="l", position=Direction3(0, 0, 0),
            hearing_impaired=False, intelligibility_preference=0.0,
            team_preference=None)
        scenario = build_scenario(layout, [listener])
        ctx = ContextTracker().update(scenario, scene)
        return scene, scenario, ctx

    def test_route_assigns_every_object(self, basic_scene_dir):
        scene, scenario, ctx = self._demo(basic_scene_dir)
        assignments = route_scene(scene, scenario, ctx)
        assert [a.object_id for a in assignments] == ["band", "narrator"]
        classes = {a.renderer.kind for a in assignments}
        assert len(classes) >= 2

    def test_route_is_idempotent(self, basic_scene_dir):
        scene, scenario, ctx = self._demo(basic_scene_dir)
        assert route_scene(scene, scenario, ctx) == route_scene(scene, scenario, ctx)

    def test_route_emits_crossfade_on_change(self, basic_scene_dir):
        """A new table changes the assignments the engine crossfades on."""
        scene, scenario, ctx = self._demo(basic_scene_dir)
        first = route_scene(scene, scenario, ctx)
        everything_diffuse = parse_selection_rules({
            "schema": "selection v1",
            "rules": [{"match": "true", "renderer": "Diffuse"},
                      {"match": "true", "renderer": "AP1"}],
        })
        second = route_scene(scene, scenario, ctx, everything_diffuse)
        assert [a.object_id for a in second] == [a.object_id for a in first]
        changed = [b for a, b in zip(first, second) if a != b]
        assert changed
        assert all(b.renderer.kind is RendererKind.DIFFUSE for b in changed)
