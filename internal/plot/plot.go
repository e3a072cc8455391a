// Package plot renders experiment results as ASCII charts and CSV tables,
// keeping the reproduction harness dependency-free. Line charts support
// multiple series and log-scaled axes (needed for the Fig. 5/7 log-log
// survival plots); heatmaps render the Fig. 8 performance surface.
package plot

import (
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Series is one named line on a chart.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// plotHeight is the plot area's row count.
const plotHeight = 20

// Config controls chart rendering.
type Config struct {
	Width  int // plot area columns (default 72)
	Title  string
	XLabel string
	YLabel string
	LogX   bool
	LogY   bool
}

func (c *Config) setDefaults() {
	if c.Width <= 0 {
		c.Width = 72
	}
}

var seriesGlyphs = []byte{'*', '+', 'o', 'x', '#', '@', '%', '&'}

// Line renders one or more series on a shared grid.
func Line(cfg Config, series ...Series) (string, error) {
	cfg.setDefaults()
	if len(series) == 0 {
		return "", errors.New("plot: no series")
	}
	type pt struct{ x, y float64 }
	pts := make([][]pt, len(series))
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for si, s := range series {
		if len(s.X) != len(s.Y) || len(s.X) == 0 {
			return "", fmt.Errorf("plot: series %q has mismatched or empty data", s.Name)
		}
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			if cfg.LogX {
				if x <= 0 {
					continue
				}
				x = math.Log10(x)
			}
			if cfg.LogY {
				if y <= 0 {
					continue
				}
				y = math.Log10(y)
			}
			if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
				continue
			}
			pts[si] = append(pts[si], pt{x, y})
			minX, maxX = math.Min(minX, x), math.Max(maxX, x)
			minY, maxY = math.Min(minY, y), math.Max(maxY, y)
		}
	}
	if minX > maxX {
		return "", errors.New("plot: no plottable points (log scale with non-positive data?)")
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}

	grid := make([][]byte, plotHeight)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", cfg.Width))
	}
	for si, ps := range pts {
		g := seriesGlyphs[si%len(seriesGlyphs)]
		for _, p := range ps {
			col := int((p.x - minX) / (maxX - minX) * float64(cfg.Width-1))
			row := plotHeight - 1 - int((p.y-minY)/(maxY-minY)*float64(plotHeight-1))
			grid[row][col] = g
		}
	}

	var b strings.Builder
	if cfg.Title != "" {
		fmt.Fprintf(&b, "%s\n", cfg.Title)
	}
	yHi, yLo := maxY, minY
	suffix := ""
	if cfg.LogY {
		suffix = " (log10)"
	}
	fmt.Fprintf(&b, "%10.4g +%s\n", yHi, "")
	for _, row := range grid {
		fmt.Fprintf(&b, "%10s |%s\n", "", string(row))
	}
	fmt.Fprintf(&b, "%10.4g +%s\n", yLo, strings.Repeat("-", cfg.Width))
	xs := ""
	if cfg.LogX {
		xs = " (log10)"
	}
	fmt.Fprintf(&b, "%10s  %-*.4g%*.4g\n", "", cfg.Width/2, minX, cfg.Width-cfg.Width/2, maxX)
	if cfg.XLabel != "" || cfg.YLabel != "" {
		fmt.Fprintf(&b, "  x: %s%s   y: %s%s\n", cfg.XLabel, xs, cfg.YLabel, suffix)
	}
	legend := make([]string, 0, len(series))
	for si, s := range series {
		legend = append(legend, fmt.Sprintf("%c %s", seriesGlyphs[si%len(seriesGlyphs)], s.Name))
	}
	fmt.Fprintf(&b, "  legend: %s\n", strings.Join(legend, "   "))
	return b.String(), nil
}

var rampGlyphs = []byte(" .:-=+*#%@")

// Heatmap renders a matrix z[i][j] (rows over xs, columns over ys) as an
// intensity map: dark glyphs are high values.
func Heatmap(cfg Config, xs, ys []float64, z [][]float64) (string, error) {
	cfg.setDefaults()
	if len(z) == 0 || len(z) != len(xs) {
		return "", errors.New("plot: heatmap shape mismatch")
	}
	for _, row := range z {
		if len(row) != len(ys) {
			return "", errors.New("plot: heatmap shape mismatch")
		}
	}
	minZ, maxZ := math.Inf(1), math.Inf(-1)
	for _, row := range z {
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			minZ, maxZ = math.Min(minZ, v), math.Max(maxZ, v)
		}
	}
	if minZ > maxZ {
		return "", errors.New("plot: heatmap has no finite values")
	}
	if maxZ == minZ {
		maxZ = minZ + 1
	}
	var b strings.Builder
	if cfg.Title != "" {
		fmt.Fprintf(&b, "%s\n", cfg.Title)
	}
	// Downsample rows/cols to fit the configured size.
	rStep := float64(len(xs)) / float64(min(plotHeight, len(xs)))
	cStep := float64(len(ys)) / float64(min(cfg.Width, len(ys)))
	for r := 0.0; int(r) < len(xs); r += rStep {
		i := int(r)
		fmt.Fprintf(&b, "%8.3g |", xs[i])
		for c := 0.0; int(c) < len(ys); c += cStep {
			j := int(c)
			v := z[i][j]
			var g byte = '?'
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				idx := int((v - minZ) / (maxZ - minZ) * float64(len(rampGlyphs)-1))
				g = rampGlyphs[idx]
			}
			b.WriteByte(g)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%8s  cols: %s=%.4g .. %.4g   intensity: %.4g (light) .. %.4g (dark)\n",
		"", cfg.XLabel, ys[0], ys[len(ys)-1], minZ, maxZ)
	return b.String(), nil
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Bars renders labelled values as horizontal bars.
func Bars(cfg Config, labels []string, values []float64) (string, error) {
	cfg.setDefaults()
	if len(labels) != len(values) || len(labels) == 0 {
		return "", errors.New("plot: bars need matching non-empty labels/values")
	}
	maxV := math.Inf(-1)
	for _, v := range values {
		if !math.IsInf(v, 0) && !math.IsNaN(v) {
			maxV = math.Max(maxV, v)
		}
	}
	if maxV <= 0 || math.IsInf(maxV, -1) {
		maxV = 1
	}
	var b strings.Builder
	if cfg.Title != "" {
		fmt.Fprintf(&b, "%s\n", cfg.Title)
	}
	width := 0
	for _, l := range labels {
		if len(l) > width {
			width = len(l)
		}
	}
	for i, l := range labels {
		n := 0
		if !math.IsNaN(values[i]) && !math.IsInf(values[i], 0) && values[i] > 0 {
			n = int(values[i] / maxV * float64(cfg.Width))
		}
		fmt.Fprintf(&b, "%-*s |%s %.4g\n", width, l, strings.Repeat("#", n), values[i])
	}
	return b.String(), nil
}

// WriteCSV writes a header row and float rows.
func WriteCSV(w io.Writer, header []string, rows [][]float64) error {
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	for _, row := range rows {
		if len(row) != len(header) {
			return fmt.Errorf("plot: row has %d columns, header has %d", len(row), len(header))
		}
		cols := make([]string, len(row))
		for i, v := range row {
			cols[i] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
			return err
		}
	}
	return nil
}
