package brewsvc

// ShardIndexOf exposes the admission routing decision: the index of the
// shard that owns req's entry key. Tests use it to place requests on
// specific shards (cross-shard isolation) and to predict ShardStats
// attribution.
func (s *Service) ShardIndexOf(req *Request) int {
	ek, _ := keysOf(req)
	return s.shardOf(ek).id
}
