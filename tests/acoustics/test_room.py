"""Unit tests for the image-source room model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import interior_positions, rooms
from repro.acoustics.geometry import Position, Room
from repro.acoustics.propagation import PropagationModel
from repro.acoustics.room import ImageSourceRoomModel
from repro.dsp.signals import Unit, mix, tone
from repro.errors import GeometryError, SignalDomainError


@pytest.fixture()
def room_model():
    return ImageSourceRoomModel(
        room=Room.meeting_room(),
        propagation=PropagationModel(include_delay=False),
    )


class TestPaths:
    def test_direct_plus_six_reflections(self, room_model):
        paths = room_model.paths(
            Position(1, 2, 1), Position(4, 2, 1)
        )
        assert len(paths) == 7
        assert paths[0].reflection_count == 0
        assert all(p.reflection_count == 1 for p in paths[1:])

    def test_direct_path_is_shortest(self, room_model):
        paths = room_model.paths(Position(1, 2, 1), Position(4, 2, 1))
        assert paths[0].distance_m == min(p.distance_m for p in paths)

    def test_reflection_amplitudes_attenuated(self, room_model):
        paths = room_model.paths(Position(1, 2, 1), Position(4, 2, 1))
        assert paths[0].amplitude_factor == 1.0
        assert all(p.amplitude_factor < 1.0 for p in paths[1:])

    def test_coincident_positions_rejected(self, room_model):
        with pytest.raises(GeometryError):
            room_model.paths(Position(1, 2, 1), Position(1, 2, 1))

    def test_outside_room_rejected(self, room_model):
        with pytest.raises(GeometryError):
            room_model.paths(Position(-1, 2, 1), Position(4, 2, 1))

    def test_reflections_can_be_disabled(self):
        model = ImageSourceRoomModel(
            room=Room.meeting_room(), include_reflections=False
        )
        paths = model.paths(Position(1, 2, 1), Position(4, 2, 1))
        assert len(paths) == 1


class TestTransmit:
    def test_requires_pascal(self, room_model):
        wave = tone(1000.0, 0.01, 48000.0)
        with pytest.raises(SignalDomainError, match="pascals"):
            room_model.transmit(wave, Position(1, 2, 1), Position(4, 2, 1))

    def test_reverberant_louder_than_free_field(self, room_model):
        wave = tone(1000.0, 0.1, 48000.0, unit=Unit.PASCAL)
        source, receiver = Position(1, 2, 1), Position(4, 2, 1)
        reverberant = room_model.transmit(wave, source, receiver)
        free = ImageSourceRoomModel(
            room=room_model.room, include_reflections=False,
            propagation=room_model.propagation,
        ).transmit(wave, source, receiver)
        # Summed reflections add energy on top of the direct path.
        assert reverberant.energy() > free.energy()

    def test_absorbing_room_closer_to_free_field(self):
        wave = tone(1000.0, 0.1, 48000.0, unit=Unit.PASCAL)
        source, receiver = Position(1, 2, 1), Position(4, 2, 1)

        def energy(absorption):
            model = ImageSourceRoomModel(
                room=Room(6.5, 4.0, 2.5, wall_absorption=absorption),
                propagation=PropagationModel(include_delay=False),
            )
            return model.transmit(wave, source, receiver).energy()

        assert energy(0.9) < energy(0.1)


def per_path_mix(model, wave, source, receiver):
    """The reflection fan partitioned into rows of one: every path
    propagated alone, scaled by its wall factor, and mixed."""
    return mix(
        [
            model.propagation.propagate(wave, path.distance_m)
            * path.amplitude_factor
            for path in model.paths(source, receiver)
        ]
    )


class TestTransmitBatch:
    """transmit() sweeps the direct path and the six images as one
    stacked kernel call; partitioning that stack into per-path calls
    must not change a bit."""

    def test_bitwise_equals_transmit(self, room_model):
        wave = tone(1200.0, 0.05, 48000.0, unit=Unit.PASCAL)
        source, receiver = Position(1, 2, 1), Position(4, 2, 1)
        stacked = room_model.transmit(wave, source, receiver)
        alone = per_path_mix(room_model, wave, source, receiver)
        assert np.array_equal(stacked.samples, alone.samples)
        assert stacked.sample_rate == alone.sample_rate
        assert stacked.unit == alone.unit

    def test_bitwise_with_delay_and_long_signal(self):
        # > 64 rfft bins exercises the interpolated-absorption branch;
        # include_delay exercises per-path fractional shifts and the
        # zero-padded fold across unequal row lengths.
        model = ImageSourceRoomModel(room=Room.meeting_room())
        wave = tone(35000.0, 0.03, 192000.0, unit=Unit.PASCAL)
        source, receiver = Position(0.5, 2.0, 1.0), Position(5.5, 1.5, 1.2)
        stacked = model.transmit(wave, source, receiver)
        alone = per_path_mix(model, wave, source, receiver)
        assert np.array_equal(stacked.samples, alone.samples)

    @given(data=st.data(), room=rooms())
    @settings(max_examples=10, deadline=None)
    def test_bitwise_property_over_random_rooms(self, data, room):
        source = data.draw(interior_positions(room))
        receiver = data.draw(interior_positions(room))
        if source.distance_to(receiver) < 1e-6:
            return
        model = ImageSourceRoomModel(room=room)
        wave = tone(900.0, 0.01, 16000.0, unit=Unit.PASCAL)
        stacked = model.transmit(wave, source, receiver)
        alone = per_path_mix(model, wave, source, receiver)
        assert np.array_equal(stacked.samples, alone.samples)

    def test_reflections_disabled_reduces_to_direct(self):
        model = ImageSourceRoomModel(
            room=Room.meeting_room(), include_reflections=False
        )
        wave = tone(1000.0, 0.02, 48000.0, unit=Unit.PASCAL)
        source, receiver = Position(1, 2, 1), Position(4, 2, 1)
        direct = model.propagation.propagate(
            wave, source.distance_to(receiver)
        )
        transmitted = model.transmit(wave, source, receiver)
        assert np.array_equal(direct.samples, transmitted.samples)
