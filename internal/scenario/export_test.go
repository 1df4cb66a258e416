package scenario

// The protocol table's one registration path, for tests outside the package
// that add a protocol without touching protocols.go, and the types a
// single-shot builder speaks.
type (
	NodeConfig = nodeConfig
	SingleNode = singleNode
)

// Register appends a single-shot row to the protocol table and returns the
// function that removes it again (for t.Cleanup).
func Register(d Descriptor, build func(NodeConfig) (SingleNode, error)) (remove func()) {
	d.single = build
	table = append(table, d)
	return func() { table = table[:len(table)-1] }
}
