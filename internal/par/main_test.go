package par

import (
	"testing"

	"paratune/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }
