// Streaming coherent-core tracking: the dynamic counterpart of the story
// identification application.
//
// Posts keep arriving, so the hourly snapshot layers of the entity
// co-occurrence graph gain and lose edges continuously. Instead of
// re-running DCCS after every update, a mutable Engine takes each step's
// edges as one ApplyUpdates batch, and a CoreWatch keeps the d-coherent
// core of the watched snapshots current: after a batch that can have
// changed it, one d-CC peel recomputes it exactly on the new graph,
// starting from the intersection of the snapshots' d-cores after an
// insertion and from the previous core after deletions. The example
// simulates a story that builds up, peaks, and dissolves, and prints the
// tracked core as it evolves.
//
// Run with:
//
//	go run ./examples/streaming
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"slices"

	dccs "repro"
)

const (
	entities = 500
	layers   = 3 // the three snapshots being watched
	d        = 3
)

var watched = []int{0, 1, 2}

func main() {
	ctx := context.Background()
	eng, err := dccs.NewMutableEngine(dccs.NewBuilder(entities, layers).Build(), dccs.EngineConfig{})
	if err != nil {
		log.Fatal(err)
	}
	w, err := eng.Watch(ctx, watched, d)
	if err != nil {
		log.Fatal(err)
	}
	defer w.Close()
	apply := func(batch []dccs.EdgeUpdate) {
		if _, err := eng.ApplyUpdates(ctx, batch); err != nil {
			log.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(4))

	// Background chatter on all snapshots, in one batch.
	var chatter []dccs.EdgeUpdate
	for i := 0; i < 2000; i++ {
		u, v := rng.Intn(entities), rng.Intn(entities)
		if u != v {
			chatter = append(chatter, dccs.EdgeUpdate{Op: dccs.EdgeInsert, Layer: rng.Intn(layers), U: u, V: v})
		}
	}
	apply(chatter)
	_, size := tracked(eng, w, nil)
	fmt.Printf("background only: core size %d\n", size)

	// Phase 1: a story about entities 40..49 builds up pair by pair, one
	// batch per pair across every snapshot. Watch the core light up the
	// moment the group gets dense enough — a single batch flips it.
	story := []int{40, 41, 42, 43, 44, 45, 46, 47, 48, 49}
	fmt.Println("\nstory building up:")
	added := 0
	for i := 0; i < len(story); i++ {
		for j := i + 1; j < len(story); j++ {
			var pair []dccs.EdgeUpdate
			for layer := 0; layer < layers; layer++ {
				pair = append(pair, dccs.EdgeUpdate{Op: dccs.EdgeInsert, Layer: layer, U: story[i], V: story[j]})
			}
			apply(pair)
			added++
			if members, size := tracked(eng, w, story); members == len(story) {
				fmt.Printf("  after %2d pair(s): all %d entities in the %d-coherent core\n",
					added, len(story), d)
				i, j = len(story), len(story) // break out
			} else if added%12 == 0 {
				fmt.Printf("  after %2d pair(s): %2d/%d entities tracked (core size %d)\n",
					added, members, len(story), size)
			}
		}
	}

	// Phase 2: the story dissolves — one batch per entity drops its story
	// edges from snapshot 2. The core follows.
	fmt.Println("\nstory dissolving on snapshot 2:")
	for i := 0; i < len(story); i++ {
		var drop []dccs.EdgeUpdate
		for j := i + 1; j < len(story); j++ {
			drop = append(drop, dccs.EdgeUpdate{Op: dccs.EdgeDelete, Layer: 2, U: story[i], V: story[j]})
		}
		apply(drop)
		members, size := tracked(eng, w, story)
		fmt.Printf("  entity %d disconnected on snapshot 2: %d/%d tracked, core size %d\n",
			story[i], members, len(story), size)
		if members == 0 {
			break
		}
	}

	fmt.Println("\nevery state above equals a from-scratch dCC recomputation;")
	fmt.Println("the watch refreshes once per batch that can change it.")
}

// tracked returns how many story entities the watched core holds and
// the core's size, after checking the core against a from-scratch
// CoherentCore of the engine's current graph.
func tracked(eng *dccs.Engine, w *dccs.CoreWatch, story []int) (members, size int) {
	want, err := dccs.CoherentCore(eng.Graph(), watched, d)
	if err != nil {
		log.Fatal(err)
	}
	core := w.Core()
	if !slices.EqualFunc(core, want, func(a int32, b int) bool { return int(a) == b }) {
		log.Fatalf("watch core (%d vertices) differs from CoherentCore (%d)", len(core), len(want))
	}
	for _, v := range story {
		if _, ok := slices.BinarySearch(core, int32(v)); ok {
			members++
		}
	}
	return members, len(core)
}
