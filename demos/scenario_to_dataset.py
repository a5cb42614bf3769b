"""Generate a synthetic driving video, slice it into training windows,
and round-trip everything through the on-disk formats.

    python3 demos/scenario_to_dataset.py
"""

import tempfile
from pathlib import Path

import numpy as np

from fvl.dataio import (
    generate_scenario,
    random_scenario,
    read_dataset,
    read_video_dir,
    windows_from_video,
    write_dataset,
    write_video_dir,
)


def main():
    scenario = random_scenario(7, frames=24, width=640, height=320)
    print(f"scenario: {scenario.frames} frames at {scenario.fps} fps, "
          f"{scenario.width}x{scenario.height}, {len(scenario.actors)} actors")
    for index, actor in enumerate(scenario.actors):
        print(f"  actor {index}: starts at ({actor.x:.1f}, {actor.z:.1f}) m, "
              f"heading {actor.heading:.2f} rad, {actor.speed:.2f} m/frame")

    video = generate_scenario(scenario)
    print()
    print("projected tracks (first and last visible frame per actor):")
    for track, rows in sorted(video.tracks.items()):
        # one row per frame with a box, in frame order
        first_t, last_t = rows["frame"][[0, -1]]
        first_box, last_box = rows["box"][[0, -1]]
        print(f"  track {track}: {len(rows)} frames, frame {first_t} at "
              f"({first_box[0]:.0f},{first_box[1]:.0f}) -> frame {last_t} at "
              f"({last_box[0]:.0f},{last_box[1]:.0f})")

    samples, skipped = windows_from_video(video, tau=6, delta=4,
                                          expand=1.5, n=3)
    print()
    print(f"windowing with tau=6 delta=4 gives {len(samples)} samples "
          f"({skipped} too-short runs skipped)")
    sample = samples[0]
    print(f"first sample: track {sample.track}, past {sample.tau} boxes, "
          f"future {sample.delta} boxes, flow width "
          f"{sample.flow[0].values.size}, ego poses {sample.ego.shape}")

    with tempfile.TemporaryDirectory() as tmp:
        video_dir = Path(tmp) / "video07"
        write_video_dir(video, video_dir, tau=6, delta=4)
        loaded = read_video_dir(video_dir)
        print()
        print(f"video dir round-trip: {sorted(p.name for p in video_dir.iterdir())}")
        print(f"  reloaded {loaded.frames} frames, {len(loaded.tracks)} tracks, "
              f"{len(loaded.ego_steps)} ego steps")

        dataset = Path(tmp) / "windows.fvlw"
        write_dataset(samples, dataset)
        again = read_dataset(dataset)
        boxes_match = all(np.array_equal(a.past, b.past)
                          for a, b in zip(samples, again))
        print(f"dataset round-trip: {len(again)} samples, "
              f"past boxes identical: {boxes_match}")


if __name__ == "__main__":
    main()
