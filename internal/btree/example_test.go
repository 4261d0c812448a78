package btree_test

import (
	"fmt"

	"planar/internal/btree"
)

// Example shows the range primitives the planar index is built on: an
// O(log n) rank query fixes where the smaller and intermediate
// intervals end, and RankChunks hands out each interval's ids leaf by
// leaf.
func Example() {
	entries := []btree.Entry{
		{Key: 10, ID: 0}, {Key: 20, ID: 1}, {Key: 30, ID: 2},
		{Key: 40, ID: 3}, {Key: 50, ID: 4},
	}
	tree := btree.BulkLoad(entries)

	acc, end := tree.RankLE(25), tree.RankLE(45)
	var smaller, middle []uint32
	tree.RankChunks(0, acc, func(ids []uint32) bool {
		smaller = append(smaller, ids...)
		return true
	})
	tree.RankChunks(acc, end, func(ids []uint32) bool {
		middle = append(middle, ids...)
		return true
	})
	fmt.Println("smaller interval:", smaller)
	fmt.Println("intermediate interval:", middle)

	fmt.Println("rank(35):", tree.RankLE(35))

	tree.Delete(30, 2)
	tree.Insert(35, 9)
	fmt.Println("after update, rank(35):", tree.RankLE(35))
	// Output:
	// smaller interval: [0 1]
	// intermediate interval: [2 3]
	// rank(35): 3
	// after update, rank(35): 3
}
